package fetch

import "time"

// fixtureClock mirrors the package's injectable Clock.
type fixtureClock interface {
	Now() time.Time
}

// backoffWaitClocked routes every timing read through the injected clock:
// no findings.
func backoffWaitClocked(clk fixtureClock) time.Duration {
	start := clk.Now()
	return clk.Now().Sub(start)
}

// fixtureWall is the one allowlisted real-clock site.
type fixtureWall struct{}

//lint:allow clockcheck fixtureWall is the fixture's one real-clock site, behind the injectable clock
func (fixtureWall) Now() time.Time { return time.Now() }
