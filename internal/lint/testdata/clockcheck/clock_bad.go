package fetch

import (
	"math/rand" // want "imports math/rand"
	"time"
)

// backoffWait measures a retry backoff straight off the wall clock and
// jitters it from the global RNG, so tests cannot pin it.
func backoffWait() time.Duration {
	start := time.Now() // want "direct time.Now"
	_ = rand.Int()
	return time.Since(start) // want "direct time.Since"
}
