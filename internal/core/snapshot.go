// Snapshot: versioned binary persistence for the learned offline artifact.
//
// The format is deliberately hand-rolled rather than gob/JSON so that the
// bytes are deterministic (maps are emitted in sorted order), strict to
// decode (magic, version, length and checksum are all verified before any
// payload field is parsed), and stable across Go versions — a model saved
// by one process warm-starts another without re-running the offline phase.
// The framing (magic + version + length + CRC32 header) and the payload
// codec are shared with the catalog snapshot through internal/snapfmt.
//
// The payload holds everything the runtime pipeline consumes — the
// correspondence set, the trained logistic-regression weights, the scored
// candidate list, the title→category classifier counts, and the §5.1
// statistics. The offline phase's raw inputs (offers, matches, the feature
// table) are learning-time diagnostics and are not persisted; a decoded
// OfflineResult carries nil for them.
//
// Format v2 is dictionary-coded. A model's hundreds of thousands of rows
// repeat a few hundred merchant, category and attribute names and some
// tens of thousands of distinct scores, so each name and score is stored
// once and rows refer to them by index. The payload sections, in order:
//
//	stats        6 × u64
//	names        u32 count, then each name as u32 length + bytes
//	scores       u32 count, then each score as its float64 bits (u64)
//	correspond.  u32 count, then per row 5 uvarints:
//	             merchant, category, merchant attr, catalog attr (name
//	             indexes) and score (score index)
//	scored       u32 count, then per row the same 5 uvarints
//	logistic     present flag, training counts, bias, weights
//	classifier   present flag, Laplace, priors flag, classes with tokens
//
// Names and scores are numbered in first-seen order over the
// correspondences (sorted by merchant, category, merchant attribute) and
// then the scored candidates in stored order, which is ScoredCandidates'
// order. The bytes are therefore a pure function of the model, and
// decoding builds every row without a sort or a per-row string.
package core

import (
	"errors"
	"io"
	"math"

	"prodsynth/internal/categorize"
	"prodsynth/internal/correspond"
	"prodsynth/internal/ml"
	"prodsynth/internal/snapfmt"
)

// SnapshotVersion is the on-disk format version written by EncodeOffline.
// DecodeOffline rejects any other version.
const SnapshotVersion = 2

// ErrBadSnapshot is wrapped by every DecodeOffline error caused by the
// input (bad magic, unsupported version, checksum mismatch, truncation,
// malformed payload) — as opposed to I/O errors from the reader.
var ErrBadSnapshot = errors.New("core: invalid model snapshot")

var snapshotMagic = [4]byte{'P', 'S', 'M', 'D'}

// maxSnapshotPayload bounds the payload length DecodeOffline accepts, so a
// corrupt header cannot demand an absurd read.
const maxSnapshotPayload = 1 << 30

// EncodeOffline writes a versioned, checksummed snapshot of the learned
// artifact. The output is deterministic: encoding the same logical state
// twice yields identical bytes.
func EncodeOffline(w io.Writer, off *OfflineResult) error {
	if off == nil {
		return errors.New("core: nil offline result")
	}
	var corr []correspond.Scored
	if off.Correspondences != nil {
		corr = off.Correspondences.All()
	}
	var p snapfmt.Writer
	writeStats(&p, off.Stats)
	writeRows(&p, corr, off.Scored)
	writeLogistic(&p, off.Model)
	writeClassifier(&p, off.Classifier)
	return snapfmt.Encode(w, snapshotMagic, SnapshotVersion, maxSnapshotPayload, p.Bytes())
}

// DecodeOffline parses a snapshot written by EncodeOffline, strictly: any
// deviation from the format — wrong magic, unknown version, length or
// checksum mismatch, truncated or trailing bytes — is an error wrapping
// ErrBadSnapshot, never a panic or a partially filled result.
func DecodeOffline(r io.Reader) (*OfflineResult, error) {
	off, err := DecodeOfflineFrom(r)
	if err != nil {
		return nil, err
	}
	if err := snapfmt.ExpectEOF(r, ErrBadSnapshot); err != nil {
		return nil, err
	}
	return off, nil
}

// DecodeOfflineFrom parses exactly one snapshot block and leaves the
// reader positioned after it — the entry point for composite artifacts
// (the catalog+model bundle) where another block follows. DecodeOffline
// is this plus a trailing-data check.
func DecodeOfflineFrom(r io.Reader) (*OfflineResult, error) {
	payload, err := snapfmt.Decode(r, snapshotMagic, SnapshotVersion, maxSnapshotPayload, ErrBadSnapshot)
	if err != nil {
		return nil, err
	}
	d := snapfmt.NewReader(payload, ErrBadSnapshot)
	off := &OfflineResult{}
	off.Stats = readStats(d)
	off.Correspondences, off.Scored = readRows(d)
	off.Model = readLogistic(d)
	off.Classifier = readClassifier(d)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return off, nil
}

// rowFields is the number of uvarint indexes in one correspondence or
// scored-candidate row; a row is at least that many bytes.
const rowFields = 5

// rowDict numbers names and score bits in first-seen order and records
// each row as rowFields indexes into those tables.
type rowDict struct {
	names   []string
	nameIx  map[string]uint32
	scores  []float64
	scoreIx map[uint64]uint32
	rows    []uint32
}

func (t *rowDict) name(s string) uint32 {
	i, ok := t.nameIx[s]
	if !ok {
		i = uint32(len(t.names))
		t.nameIx[s] = i
		t.names = append(t.names, s)
	}
	return i
}

func (t *rowDict) score(f float64) uint32 {
	bits := math.Float64bits(f)
	i, ok := t.scoreIx[bits]
	if !ok {
		i = uint32(len(t.scores))
		t.scoreIx[bits] = i
		t.scores = append(t.scores, f)
	}
	return i
}

func (t *rowDict) add(sc correspond.Scored) {
	t.rows = append(t.rows,
		t.name(sc.Key.Merchant),
		t.name(sc.Key.CategoryID),
		t.name(sc.MerchantAttr),
		t.name(sc.CatalogAttr),
		t.score(sc.Score))
}

// writeRows writes the name table, the score table, the correspondence
// rows and the scored-candidate rows, in that order.
func writeRows(p *snapfmt.Writer, corr, scored []correspond.Scored) {
	t := rowDict{
		nameIx:  make(map[string]uint32),
		scoreIx: make(map[uint64]uint32),
		rows:    make([]uint32, 0, rowFields*(len(corr)+len(scored))),
	}
	for _, sc := range corr {
		t.add(sc)
	}
	for _, sc := range scored {
		t.add(sc)
	}
	p.U32(uint32(len(t.names)))
	for _, s := range t.names {
		p.Str(s)
	}
	p.U32(uint32(len(t.scores)))
	for _, f := range t.scores {
		p.F64(f)
	}
	split := rowFields * len(corr)
	for _, section := range [][]uint32{t.rows[:split], t.rows[split:]} {
		p.U32(uint32(len(section) / rowFields))
		for _, ix := range section {
			p.Uvarint(uint64(ix))
		}
	}
}

func writeStats(p *snapfmt.Writer, st OfflineStats) {
	p.U64(uint64(st.HistoricalOffers))
	p.U64(uint64(st.MatchedOffers))
	p.U64(uint64(st.Candidates))
	p.U64(uint64(st.TrainingSize))
	p.U64(uint64(st.TrainingPositives))
	p.U64(uint64(st.Correspondences))
}

func writeLogistic(p *snapfmt.Writer, m *correspond.Model) {
	if m == nil || m.LR == nil {
		p.Bool(false)
		return
	}
	p.Bool(true)
	p.U64(uint64(m.TrainingSize))
	p.U64(uint64(m.TrainingPositives))
	p.F64(m.LR.Bias)
	p.U32(uint32(len(m.LR.Weights)))
	for _, w := range m.LR.Weights {
		p.F64(w)
	}
}

func writeClassifier(p *snapfmt.Writer, c *categorize.Classifier) {
	if c == nil {
		p.Bool(false)
		return
	}
	p.Bool(true)
	snap := c.Snapshot()
	p.F64(snap.Laplace)
	p.Bool(snap.ClassPriors)
	p.U32(uint32(len(snap.Classes)))
	for _, cls := range snap.Classes {
		p.Str(cls.Name)
		p.U64(uint64(cls.Docs))
		p.U32(uint32(len(cls.Tokens)))
		for _, tc := range cls.Tokens {
			p.Str(tc.Token)
			p.U64(uint64(tc.Count))
		}
	}
}

// readRows reads what writeRows wrote. Every row's strings share the name
// table's, so decoding allocates per distinct name, not per row.
func readRows(d *snapfmt.Reader) (*correspond.Set, []correspond.Scored) {
	// Smallest name: its 4-byte length alone.
	n := d.Count("names", 4)
	names := make([]string, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		names = append(names, d.Str())
	}
	n = d.Count("scores", 8)
	scores := make([]float64, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		scores = append(scores, d.F64())
	}
	// row reads one row into sc, its fields in the order writeRows emits;
	// after a failure it leaves sc unset.
	row := func(sc *correspond.Scored) {
		merchant, category := d.Index("name", len(names)), d.Index("name", len(names))
		merchantAttr, catalogAttr := d.Index("name", len(names)), d.Index("name", len(names))
		score := d.Index("score", len(scores))
		if d.Err() != nil {
			return
		}
		sc.Key.Merchant, sc.Key.CategoryID = names[merchant], names[category]
		sc.MerchantAttr, sc.CatalogAttr = names[merchantAttr], names[catalogAttr]
		sc.Score = scores[score]
	}
	set := correspond.NewSet()
	n = d.Count("correspondences", rowFields)
	for i := 0; i < n && d.Err() == nil; i++ {
		var sc correspond.Scored
		row(&sc)
		set.Add(sc)
	}
	n = d.Count("scored candidates", rowFields)
	if n == 0 {
		return set, nil
	}
	scored := make([]correspond.Scored, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		row(&scored[i])
	}
	return set, scored
}

func readStats(d *snapfmt.Reader) OfflineStats {
	return OfflineStats{
		HistoricalOffers:  d.Int("stats.HistoricalOffers"),
		MatchedOffers:     d.Int("stats.MatchedOffers"),
		Candidates:        d.Int("stats.Candidates"),
		TrainingSize:      d.Int("stats.TrainingSize"),
		TrainingPositives: d.Int("stats.TrainingPositives"),
		Correspondences:   d.Int("stats.Correspondences"),
	}
}

func readLogistic(d *snapfmt.Reader) *correspond.Model {
	if !d.Bool() {
		return nil
	}
	m := &correspond.Model{
		TrainingSize:      d.Int("model.TrainingSize"),
		TrainingPositives: d.Int("model.TrainingPositives"),
	}
	bias := d.F64()
	n := d.Count("classifier weights", 8)
	weights := make([]float64, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		weights = append(weights, d.F64())
	}
	m.LR = &ml.Logistic{Weights: weights, Bias: bias}
	return m
}

func readClassifier(d *snapfmt.Reader) *categorize.Classifier {
	if !d.Bool() {
		return nil
	}
	snap := ml.NBSnapshot{
		Laplace:     d.F64(),
		ClassPriors: d.Bool(),
	}
	// Smallest class: empty name (4) + docs (8) + token count (4).
	nClasses := d.Count("classifier classes", 16)
	for i := 0; i < nClasses && d.Err() == nil; i++ {
		cls := ml.NBClassSnapshot{Name: d.Str(), Docs: d.Int("class docs")}
		// Smallest token entry: empty token (4) + count (8).
		nTokens := d.Count("class tokens", 12)
		for j := 0; j < nTokens && d.Err() == nil; j++ {
			cls.Tokens = append(cls.Tokens, ml.NBTokenCount{Token: d.Str(), Count: d.Int("token count")})
		}
		snap.Classes = append(snap.Classes, cls)
	}
	if d.Err() != nil {
		return nil
	}
	return categorize.FromSnapshot(snap)
}
