// Package durable is the out-of-core persistence layer for the catalog:
// a compacted snapshot plus an append-only delta log, composed so that
// crash recovery is snapshot-load followed by log-replay.
//
// A Manager owns one data directory:
//
//	MANIFEST                 which snapshot epoch is live, and the first
//	                         log segment it does not cover
//	shard-<i>-<epoch>.psct   the epoch's snapfmt-framed catalog snapshot,
//	                         taken at its compaction: Compact writes one
//	                         file (i = 0, manifest shard count 1); a
//	                         directory written while the catalog was split
//	                         into shards holds one per shard, and Open
//	                         merges them
//	wal-<seq>.psdl           append-only log segments of CRC-framed
//	                         ProductsSince deltas (category registrations
//	                         and product appends), in commit order
//
// Writes flow through a catalog.Observer attached to the live store, so
// every committed mutation lands in the active log segment before the
// caller regains control (with fsync timing governed by FsyncPolicy).
// Compaction rotates the log, captures one snapshot of the store, atomically
// publishes a new MANIFEST (temp file + rename + directory fsync), and
// only then deletes the segments and snapshots the new epoch obsoletes —
// so a crash at any point leaves either the old epoch or the new one
// fully intact. Open replays the tail of the log over the loaded
// snapshot; replay is idempotent (the catalog's per-category version
// counters make overlap harmless) and a torn final record in the last
// segment is truncated rather than treated as corruption. A failed log
// write or fsync loses no record: the log keeps every frame it has not
// synced and writes it again, to a fresh segment after a failed fsync.
// Every file operation goes through one seam (fileSys); the crash tests
// back it with a model disk that keeps only what was synced.
package durable

import "time"

// FsyncPolicy decides when log appends are forced to stable storage.
type FsyncPolicy int

const (
	// SyncAlways fsyncs after every appended record: no acknowledged
	// mutation is lost on power failure. The default. A failed write or
	// fsync is counted in Stats.AppendErrors and retried on the next append.
	SyncAlways FsyncPolicy = iota
	// SyncInterval leaves syncing to the Manager.Run flush ticker (or
	// explicit Sync calls): a crash loses at most DefaultFsyncInterval
	// worth of appends, but the append path never blocks on the disk.
	SyncInterval
	// SyncNone fsyncs the log only to seal a segment or on Sync and
	// Close: durability only as good as the page cache.
	SyncNone
)

func (p FsyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return "unknown"
	}
}

// DefaultMaxSegmentBytes is what a zero Options.MaxSegmentBytes means;
// DefaultFsyncInterval is Run's flush period under SyncInterval.
const (
	DefaultMaxSegmentBytes = 4 << 20
	DefaultFsyncInterval   = 100 * time.Millisecond
)

// Options configures a Manager. The zero value is usable: fsync on
// every append, 4 MiB segments, and no background compaction (call
// Compact explicitly or set SnapshotInterval).
type Options struct {
	// Fsync is the log append sync policy.
	Fsync FsyncPolicy
	// MaxSegmentBytes rotates the active log segment when it grows past
	// this size. 0 means DefaultMaxSegmentBytes.
	MaxSegmentBytes int64
	// SnapshotInterval makes Run compact periodically while serving.
	// 0 disables timed compaction.
	SnapshotInterval time.Duration
	// CompactRecords makes Run compact whenever the log depth (records
	// not yet covered by a snapshot) reaches this count. 0 disables
	// depth-triggered compaction.
	CompactRecords int
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	return o
}

// RecoveryStats describes what one Open did to reach a live store.
type RecoveryStats struct {
	// Duration is the wall time from opening the directory to the store
	// being ready (snapshot load plus log replay).
	Duration time.Duration
	// SnapshotEpoch is the manifest epoch the snapshots were loaded
	// from; 0 when the directory had no manifest (fresh start).
	SnapshotEpoch uint64
	// SnapshotProducts counts products restored from the snapshot.
	SnapshotProducts int
	// ReplayedRecords counts log records applied over the snapshot
	// (records the snapshot already covered are counted too; applying
	// them is a no-op).
	ReplayedRecords int
	// TruncatedBytes is the torn tail cut off the last segment, if any.
	TruncatedBytes int64
	// Segments is how many log segments were replayed.
	Segments int
}

// Stats is a point-in-time view of the durability layer for metrics.
type Stats struct {
	// Recovery is what the opening recovery did.
	Recovery RecoveryStats
	// Epoch is the live snapshot epoch (advances on every compaction).
	Epoch uint64
	// Compactions counts compactions completed since Open.
	Compactions uint64
	// LogDepthRecords / LogDepthBytes measure the log tail not yet
	// covered by a snapshot — what a crash right now would replay.
	LogDepthRecords uint64
	LogDepthBytes   uint64
	// AppendErrors counts failed log writes, fsyncs and rotations. The
	// store stays correct in memory, and the log keeps the records it
	// could not make durable and writes them again with the next append,
	// Sync or Close. LastAppendError is the first failure's text.
	AppendErrors    uint64
	LastAppendError string
}
