package durable

import (
	"os"
	"strconv"
	"strings"
	"sync"
)

// KillpointEnv is the environment variable driving deterministic crash
// injection: "<name>:<n>" kills the process (SIGKILL, no deferred
// cleanup, no flushing) the n-th time the named killpoint is reached.
// Names in use:
//
//	append            after the n-th record is fully written and synced
//	append-torn       the n-th record is written only partially (a torn
//	                  tail), synced, then the process dies
//	compact-snapshots after compaction has written the new epoch's
//	                  snapshot but before the manifest is published
//	compact-manifest  after the new manifest is published but before the
//	                  old epoch's files are deleted
//
// Only the crash-recovery tests set this; production never does.
const KillpointEnv = "DURABLE_KILLPOINT"

// killpoint counts hits of one named crash site and dies on the n-th.
type killpoint struct {
	mu        sync.Mutex
	name      string
	remaining int
}

// parseKillpoint reads KillpointEnv; an unset or malformed value yields
// an inert killpoint that never fires.
func parseKillpoint() *killpoint {
	v := os.Getenv(KillpointEnv)
	name, count, ok := strings.Cut(v, ":")
	if !ok || name == "" {
		return &killpoint{}
	}
	n, err := strconv.Atoi(count)
	if err != nil || n <= 0 {
		return &killpoint{}
	}
	return &killpoint{name: name, remaining: n}
}

// hit reports whether this call is the fatal n-th hit of name. The
// caller performs any staged damage (e.g. the torn partial write) and
// then calls die; hit itself does not kill, so the append path can sync
// what it wrote first.
func (k *killpoint) hit(name string) bool {
	if k.name != name {
		return false
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.remaining <= 0 {
		return false
	}
	k.remaining--
	return k.remaining == 0
}

// die SIGKILLs the current process: no deferred functions, no exit
// handlers, no flushing — the closest portable stand-in for a power cut.
func die() {
	p, err := os.FindProcess(os.Getpid())
	if err == nil {
		_ = p.Kill()
	}
	select {} // the signal is asynchronous; never execute past this point
}

// maybeKill is hit + die for sites with no staged damage.
func (k *killpoint) maybeKill(name string) {
	if k.hit(name) {
		die()
	}
}
