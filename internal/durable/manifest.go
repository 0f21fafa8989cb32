package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"prodsynth/internal/snapfmt"
)

// manifestName is the single mutable file in a data directory. It is
// replaced atomically (temp + rename + directory fsync); everything else
// is immutable once written.
const manifestName = "MANIFEST"

var manifestMagic = [4]byte{'P', 'S', 'M', 'F'}

const manifestVersion = 1

// ErrBadManifest is wrapped by every manifest decode failure.
var ErrBadManifest = errors.New("durable: invalid manifest")

// maxManifestPayload bounds the manifest payload length; the real
// payload is 20 bytes.
const maxManifestPayload = 1 << 16

// manifest names the live snapshot epoch and the log position it covers.
type manifest struct {
	// Epoch identifies the live snapshot files
	// (shard-<i>-<Epoch>.psct); 1 is the first compaction.
	Epoch uint64
	// Shards is how many snapshot files the epoch has: 1 for every
	// epoch Compact writes, more in a directory written while the
	// catalog was split into shards.
	Shards uint32
	// FirstSeq is the first log segment the snapshots do NOT cover:
	// recovery replays segments >= FirstSeq, and compaction deletes
	// segments < FirstSeq.
	FirstSeq uint64
}

// snapName is the i-th immutable snapshot file of one epoch.
func snapName(i int, epoch uint64) string {
	return fmt.Sprintf("shard-%d-%d.psct", i, epoch)
}

// writeManifest atomically replaces the manifest (writeFileAtomic): a
// crash at any step leaves the old manifest (and its still-undeleted
// files) fully intact.
func writeManifest(fs fileSys, dir string, m manifest) error {
	var p snapfmt.Writer
	p.U64(m.Epoch)
	p.U32(m.Shards)
	p.U64(m.FirstSeq)
	return writeFileAtomic(fs, dir, manifestName, func(w io.Writer) error {
		return snapfmt.Encode(w, manifestMagic, manifestVersion, maxManifestPayload, p.Bytes())
	})
}

// readManifest loads the manifest; ok is false when none exists yet
// (a fresh data directory).
func readManifest(fs fileSys, dir string) (m manifest, ok bool, err error) {
	data, err := fs.readFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, err
	}
	tr := snapfmt.TrackOffset(bytes.NewReader(data))
	payload, err := snapfmt.Decode(tr, manifestMagic, manifestVersion, maxManifestPayload, ErrBadManifest)
	if err != nil {
		return manifest{}, false, err
	}
	if err := snapfmt.ExpectEOF(tr, ErrBadManifest); err != nil {
		return manifest{}, false, err
	}
	d := snapfmt.NewReader(payload, ErrBadManifest)
	m.Epoch = d.U64()
	m.Shards = d.U32()
	m.FirstSeq = d.U64()
	if err := d.Finish(); err != nil {
		return manifest{}, false, err
	}
	if m.Epoch == 0 || m.Shards == 0 {
		return manifest{}, false, fmt.Errorf("%w: zero epoch or shard count", ErrBadManifest)
	}
	return m, true, nil
}
