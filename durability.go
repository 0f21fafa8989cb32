package prodsynth

import (
	"context"
	"path/filepath"

	"prodsynth/internal/durable"
)

// Durability: the out-of-core catalog. A Durable wraps a data directory
// holding the catalog as a compacted snapshot plus an append-only delta log
// (WAL): every AddCategory/AddProduct commit is framed, checksummed, and
// appended before control returns, and reopening the directory recovers
// the catalog by loading the last compacted snapshot and replaying the
// log tail — including after a crash mid-write (a torn final record is
// truncated, anything else refuses to open). See prodsynth/internal/durable
// for the on-disk format and crash-atomicity argument.
type Durable struct {
	m *durable.Manager
}

// DurabilityOptions configures OpenDurable: fsync policy (Run flushes
// every 100 ms under SyncInterval), segment size, and the background
// compaction triggers used by Run.
type DurabilityOptions = durable.Options

// DurabilityStats is a point-in-time snapshot of a Durable's health:
// recovery cost, log depth since the last compaction, and append errors.
type DurabilityStats = durable.Stats

// RecoveryStats describes what the last OpenDurable had to do.
type RecoveryStats = durable.RecoveryStats

// FsyncPolicy picks the WAL durability/latency trade-off.
type FsyncPolicy = durable.FsyncPolicy

// Fsync policies, strongest first. SyncAlways is the default.
const (
	SyncAlways   = durable.SyncAlways
	SyncInterval = durable.SyncInterval
	SyncNone     = durable.SyncNone
)

// OpenDurable opens (creating if absent) the durable catalog rooted at
// dir and recovers its state: snapshots load, the delta log replays, and
// the returned Durable's Catalog is ready to serve and to absorb new
// commits, each appended to the log as it happens.
func OpenDurable(dir string, opts DurabilityOptions) (*Durable, error) {
	m, err := durable.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	return &Durable{m: m}, nil
}

// Catalog returns the recovered, live catalog. Use it wherever a
// *Catalog goes — New, NewSystem, Learn; every mutation through it is
// logged.
func (d *Durable) Catalog() *Catalog { return d.m.Store() }

// Dir returns the data directory.
func (d *Durable) Dir() string { return d.m.Dir() }

// ImportCatalog seeds an empty durable store from an in-RAM catalog (a
// dataset load or a bundle) and compacts immediately, so the import is
// snapshot-backed rather than one giant log. It refuses to run on a
// non-empty store — recovery owns existing state.
func (d *Durable) ImportCatalog(store *Catalog) error {
	return d.m.ImportSnapshot(store.Snapshot())
}

// Compact rotates the log, writes a fresh snapshot, atomically publishes
// it in the manifest, and deletes the segments and older snapshot files
// it covers.
// Appends proceed concurrently; recovery cost drops to the new tail.
func (d *Durable) Compact() error { return d.m.Compact() }

// Sync forces an fsync of the current log segment — the manual flush for
// SyncInterval/SyncNone policies.
func (d *Durable) Sync() error { return d.m.Sync() }

// Run services the background durability loops — interval fsync and
// automatic compaction (snapshotting while serving) — until ctx is
// cancelled. Errors are recorded in Stats, never fatal.
func (d *Durable) Run(ctx context.Context) { d.m.Run(ctx) }

// Stats reports recovery cost, current log depth, compaction count, and
// any append errors.
func (d *Durable) Stats() DurabilityStats { return d.m.Stats() }

// Close flushes and closes the log. The Catalog stays readable; further
// mutations would no longer be durable, so close last.
func (d *Durable) Close() error { return d.m.Close() }

// WithDurability attaches a Durable's data directory to the synthesis
// config: stream cluster memory spills evicted clusters to scratch files
// under <dir>/spill instead of sealing them early, keeping bounded-RAM
// streaming byte-identical to unbounded (see StreamOptions.MaxOpenClusters).
// The catalog itself is durable through d.Catalog() regardless of this
// option — this wires the out-of-core *stream* side.
func WithDurability(d *Durable) Option {
	return func(c *Config) {
		c.Spill = durable.SpillDir{Dir: filepath.Join(d.m.Dir(), "spill")}
	}
}
