package persist

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// Snapshot format, version 2. All integers are little-endian.
//
//	[0:8)    magic "GSPSNAP1"
//	[8:12)   u32 format version (2)
//	[12:16)  u32 section count C
//	16 + 32i  per-section table entry i: u32 id, u32 reserved,
//	          u64 offset, u64 length, u64 FNV-1a digest of the payload
//	16 + 32C  u64 header digest (FNV-1a of everything before it)
//	...      section payloads at their table offsets
//
// The header digest makes the table itself tamper-evident, and doubles as
// the snapshot's identity: the WAL header stores the digest of the whole
// snapshot file, binding log to state. Unknown format versions are
// rejected with ErrUnsupportedVersion before the table is trusted;
// everything else that fails to parse wraps core.ErrCorruptState and
// names the offending section.
//
// Sections: meta (mode, metric kind, policy, t, WAL op sequence, point
// count, dimension, vertex count, examined count, weight) and edges (the
// accepted sequence, dense ids) always; then points or matrix (the live
// points in dense order) for a metric state, or graph plus an optional
// hubs section (hub ids and distance arrays) for a graph state.
//
// Version 1 is still read. Its metric states kept a stable-id space (the
// idspace section lists the live stable ids; the gaps were deleted
// points), the candidate weight histogram, the cached bound rows and hub
// arrays, and its meta section carried the stable-id capacity, the hub
// epoch and a hub reselection count. A version-1 file is digest-checked
// like any other; its histogram, bounds and metric hub sections are then
// discarded, and its accepted edges are mapped from stable to dense ids
// through idspace. Snapshots are always written as version 2.

const (
	snapVersion   = 2
	snapVersionV1 = 1
)

var snapMagic = [8]byte{'G', 'S', 'P', 'S', 'N', 'A', 'P', '1'}

// Section ids. The meta section is mandatory; the rest are present per
// mode (see encode). Unknown ids, and the version-1-only sections in a
// version-2 file, are a corruption.
const (
	secMeta    = 1
	secPoints  = 2
	secMatrix  = 3
	secGraph   = 4
	secIDSpace = 5 // version 1 only
	secEdges   = 6
	secHist    = 7 // version 1 only
	secBounds  = 8 // version 1 only
	secHubs    = 9
)

var sectionNames = map[uint32]string{
	secMeta:    "meta",
	secPoints:  "points",
	secMatrix:  "matrix",
	secGraph:   "graph",
	secIDSpace: "idspace",
	secEdges:   "edges",
	secHist:    "histogram",
	secBounds:  "bounds",
	secHubs:    "hubs",
}

// maxDecodeElems bounds every element count a decoder trusts before
// allocating (stable-id capacity, vertex count, hub count, ...): a fuzzed
// or corrupted header must not be able to demand an allocation unrelated
// to the input's size. Real states beyond this need a format bump.
const maxDecodeElems = 1 << 21

// ErrUnsupportedVersion reports a snapshot or WAL whose format version
// this build does not understand.
var ErrUnsupportedVersion = errors.New("persist: unsupported format version")

// ErrNoState reports a directory with no snapshot to recover from.
var ErrNoState = errors.New("persist: no snapshot found")

// ErrSimulatedCrash reports that an injected crash hook fired (see Hooks);
// the Durable is dead and the directory holds the crash point's surviving
// disk state.
var ErrSimulatedCrash = errors.New("persist: simulated crash injected")

// corruptf builds a decode/validation error wrapping core.ErrCorruptState.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("persist: "+format+": %w", append(args, core.ErrCorruptState)...)
}

// fnv1a is the repo's standard FNV-1a 64 digest over raw bytes.
func fnv1a(b []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, x := range b {
		h ^= uint64(x)
		h *= 1099511628211
	}
	return h
}

// SnapshotDigest is the identity digest of an encoded snapshot, stored in
// the bound WAL's header.
func SnapshotDigest(data []byte) uint64 { return fnv1a(data) }

// buf is the append-only little-endian encoder.
type buf struct{ b []byte }

func (w *buf) u8(v uint8)   { w.b = append(w.b, v) }
func (w *buf) u32(v uint32) { w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
func (w *buf) u64(v uint64) {
	w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (w *buf) f64(v float64) { w.u64(math.Float64bits(v)) }

// rdr is the bounds-checked little-endian decoder over one section
// payload; the first short read poisons it and every later read fails.
type rdr struct {
	b    []byte
	pos  int
	sec  string
	fail error
}

func (r *rdr) errTruncated() error {
	if r.fail == nil {
		r.fail = corruptf("section %s truncated at byte %d", r.sec, r.pos)
	}
	return r.fail
}

func (r *rdr) take(n int) []byte {
	if r.fail != nil || n < 0 || r.pos+n > len(r.b) {
		r.errTruncated()
		return nil
	}
	out := r.b[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *rdr) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *rdr) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (r *rdr) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads an element count and checks it against the global ceiling
// and the bytes actually remaining (each element needs at least per
// bytes), so no corrupted count can demand an out-of-proportion
// allocation.
func (r *rdr) count(what string, per int) (int, error) {
	v := r.u64()
	if r.fail != nil {
		return 0, r.fail
	}
	if v > maxDecodeElems {
		r.fail = corruptf("section %s: %s count %d exceeds limit %d", r.sec, what, v, maxDecodeElems)
		return 0, r.fail
	}
	n := int(v)
	if per > 0 && n > (len(r.b)-r.pos)/per {
		r.fail = corruptf("section %s: %s count %d exceeds remaining payload", r.sec, what, n)
		return 0, r.fail
	}
	return n, nil
}

// done checks the payload was consumed exactly; trailing garbage in a
// digested section means the writer and reader disagree on the format.
func (r *rdr) done() error {
	if r.fail != nil {
		return r.fail
	}
	if r.pos != len(r.b) {
		return corruptf("section %s has %d trailing bytes", r.sec, len(r.b)-r.pos)
	}
	return nil
}

// EncodeSnapshot serializes an exported state (with the WAL position
// opSeq it corresponds to) into the version-2 snapshot format. Encoding
// is deterministic: the same state always produces the same bytes, which
// is what lets golden files guard format drift byte-for-byte.
func EncodeSnapshot(st *core.SpannerState, opSeq uint64) []byte {
	type section struct {
		id      uint32
		payload []byte
	}
	var secs []section
	add := func(id uint32, w *buf) { secs = append(secs, section{id, w.b}) }
	flag := func(w *buf, b bool) {
		if b {
			w.u8(1)
		} else {
			w.u8(0)
		}
	}

	meta := &buf{}
	flag(meta, st.GraphMode)
	meta.u8(uint8(st.MetricKind))
	flag(meta, st.Policy.CoalesceUntilQuery)
	meta.u64(uint64(st.Policy.MinBatch))
	meta.f64(st.T)
	meta.u64(opSeq)
	meta.u64(uint64(st.N))
	meta.u64(uint64(st.Dim))
	meta.u64(uint64(st.GraphN))
	meta.u64(uint64(st.EdgesExamined))
	meta.f64(st.Weight)
	add(secMeta, meta)

	edges := &buf{}
	encodeEdgeList(edges, st.Edges)
	add(secEdges, edges)

	if st.GraphMode {
		gw := &buf{}
		encodeEdgeList(gw, st.GraphEdges)
		add(secGraph, gw)
		if len(st.Hubs) > 0 {
			hw := &buf{}
			hw.u64(uint64(len(st.Hubs)))
			for _, h := range st.Hubs {
				hw.u64(uint64(h))
			}
			for _, row := range st.HubRows {
				for _, x := range row {
					hw.f64(x)
				}
			}
			add(secHubs, hw)
		}
	} else {
		id, vals := uint32(secPoints), st.Coords
		if st.MetricKind != core.MetricEuclidean {
			id, vals = secMatrix, st.Matrix
		}
		pw := &buf{}
		for _, c := range vals {
			pw.f64(c)
		}
		add(id, pw)
	}

	// Assemble: header, table, header digest, payloads.
	tableEnd := 16 + 32*len(secs)
	out := &buf{b: make([]byte, 0, tableEnd+8+totalLen(secs, func(s section) int { return len(s.payload) }))}
	out.b = append(out.b, snapMagic[:]...)
	out.u32(snapVersion)
	out.u32(uint32(len(secs)))
	off := uint64(tableEnd + 8)
	for _, s := range secs {
		out.u32(s.id)
		out.u32(0)
		out.u64(off)
		out.u64(uint64(len(s.payload)))
		out.u64(fnv1a(s.payload))
		off += uint64(len(s.payload))
	}
	out.u64(fnv1a(out.b))
	for _, s := range secs {
		out.b = append(out.b, s.payload...)
	}
	return out.b
}

// encodeEdgeList writes a u64-counted edge list (u, v, weight bits).
func encodeEdgeList(w *buf, edges []graph.Edge) {
	w.u64(uint64(len(edges)))
	for _, e := range edges {
		w.u64(uint64(e.U))
		w.u64(uint64(e.V))
		w.f64(e.W)
	}
}

// totalLen sums a per-section length without generics noise.
func totalLen[T any](xs []T, f func(T) int) int {
	n := 0
	for _, x := range xs {
		n += f(x)
	}
	return n
}

// DecodeSnapshot parses and digest-verifies a version-2 (or version-1)
// snapshot, returning the state and the WAL op sequence it was taken at.
// Arbitrary input bytes produce a typed error — ErrUnsupportedVersion for
// a foreign version, otherwise an error wrapping core.ErrCorruptState
// naming the offending section — never a panic or an allocation out of
// proportion to the input. The returned state is structurally plausible
// but not deeply validated; core.ImportIncremental owns semantic
// validation.
func DecodeSnapshot(data []byte) (*core.SpannerState, uint64, error) {
	if len(data) < 16 {
		return nil, 0, corruptf("snapshot header truncated (%d bytes)", len(data))
	}
	var magic [8]byte
	copy(magic[:], data[:8])
	if magic != snapMagic {
		return nil, 0, corruptf("bad snapshot magic %q", string(magic[:]))
	}
	version := leU32(data[8:])
	if version != snapVersion && version != snapVersionV1 {
		return nil, 0, fmt.Errorf("persist: snapshot format version %d (this build reads %d and %d): %w",
			version, snapVersionV1, snapVersion, ErrUnsupportedVersion)
	}
	v1 := version == snapVersionV1
	nsec := leU32(data[12:])
	if nsec > uint32(len(data)/32) {
		return nil, 0, corruptf("section table of %d entries exceeds file size", nsec)
	}
	tableEnd := 16 + 32*int(nsec)
	if tableEnd+8 > len(data) {
		return nil, 0, corruptf("section table truncated")
	}
	if leU64(data[tableEnd:]) != fnv1a(data[:tableEnd]) {
		return nil, 0, corruptf("header digest mismatch")
	}
	sections := make(map[uint32][]byte, nsec)
	for i := 0; i < int(nsec); i++ {
		ent := data[16+32*i:]
		id := leU32(ent)
		name := sectionNames[id]
		if name == "" || (!v1 && (id == secIDSpace || id == secHist || id == secBounds)) {
			return nil, 0, corruptf("unknown section id %d in a version-%d snapshot", id, version)
		}
		if _, dup := sections[id]; dup {
			return nil, 0, corruptf("section %s listed twice", name)
		}
		off, length := leU64(ent[8:]), leU64(ent[16:])
		if off < uint64(tableEnd+8) || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, 0, corruptf("section %s range [%d, +%d) outside file", name, off, length)
		}
		payload := data[off : off+length]
		if fnv1a(payload) != leU64(ent[24:]) {
			return nil, 0, corruptf("section %s digest mismatch", name)
		}
		sections[id] = payload
	}
	need := func(id uint32) (*rdr, error) {
		p, ok := sections[id]
		if !ok {
			return nil, corruptf("section %s missing", sectionNames[id])
		}
		return &rdr{b: p, sec: sectionNames[id]}, nil
	}

	mr, err := need(secMeta)
	if err != nil {
		return nil, 0, err
	}
	st := &core.SpannerState{}
	st.GraphMode = mr.u8() != 0
	st.MetricKind = core.MetricKind(mr.u8())
	st.Policy.CoalesceUntilQuery = mr.u8() != 0
	minBatch := mr.u64()
	st.T = mr.f64()
	opSeq := mr.u64()
	var capN, hubEpoch uint64
	if v1 {
		capN = mr.u64()
	}
	liveN, dim, graphN, examined := mr.u64(), mr.u64(), mr.u64(), mr.u64()
	st.Weight = mr.f64()
	if v1 {
		hubEpoch = mr.u64()
		mr.u64() // hub reselection count, no longer kept
	}
	if err := mr.done(); err != nil {
		return nil, 0, err
	}
	for _, c := range []struct {
		name string
		v    uint64
	}{{"capacity", capN}, {"live count", liveN}, {"dimension", dim}, {"vertex count", graphN},
		{"min batch", minBatch}, {"hub epoch", hubEpoch}} {
		if c.v > maxDecodeElems {
			return nil, 0, corruptf("section meta: %s %d exceeds limit %d", c.name, c.v, maxDecodeElems)
		}
	}
	if examined > math.MaxInt64/2 {
		return nil, 0, corruptf("section meta: examined count overflows")
	}
	st.N, st.Dim, st.GraphN = int(liveN), int(dim), int(graphN)
	st.EdgesExamined = int(examined)
	st.Policy.MinBatch = int(minBatch)

	er, err := need(secEdges)
	if err != nil {
		return nil, 0, err
	}
	if st.Edges, err = decodeEdgeList(er); err != nil {
		return nil, 0, err
	}

	if !st.GraphMode {
		if _, ok := sections[secHubs]; ok && !v1 {
			return nil, 0, corruptf("section hubs in a metric-mode snapshot")
		}
		if err := decodeMetricSections(st, need); err != nil {
			return nil, 0, err
		}
		if v1 {
			if err := denseEdgesV1(st, int(capN), need); err != nil {
				return nil, 0, err
			}
		}
		return st, opSeq, nil
	}
	gr, err := need(secGraph)
	if err != nil {
		return nil, 0, err
	}
	if st.GraphEdges, err = decodeEdgeList(gr); err != nil {
		return nil, 0, err
	}
	if hp, ok := sections[secHubs]; ok {
		if err := decodeHubs(st, &rdr{b: hp, sec: "hubs"}); err != nil {
			return nil, 0, err
		}
		if v1 && hubEpoch != uint64(len(st.Edges)) {
			return nil, 0, corruptf("section meta: hub epoch %d, want the accepted count %d", hubEpoch, len(st.Edges))
		}
	}
	return st, opSeq, nil
}

// decodeHubs fills the graph-mode hub set and its GraphN-long distance
// arrays.
func decodeHubs(st *core.SpannerState, hr *rdr) error {
	k, err := hr.count("hub", 8)
	if err != nil {
		return err
	}
	st.Hubs = make([]int, k)
	for i := range st.Hubs {
		v := hr.u64()
		if v > maxDecodeElems {
			return corruptf("section hubs: hub id %d out of range", v)
		}
		st.Hubs[i] = int(v)
	}
	if k > 0 && st.GraphN > (len(hr.b)-hr.pos)/8/k {
		return corruptf("section hubs: %d rows of %d entries exceed payload", k, st.GraphN)
	}
	st.HubRows = make([][]float64, k)
	for i := range st.HubRows {
		row := make([]float64, st.GraphN)
		for v := range row {
			row[v] = hr.f64()
		}
		st.HubRows[i] = row
	}
	return hr.done()
}

// decodeMetricSections fills the live points' payload: coordinates for a
// Euclidean state, the distance matrix otherwise.
func decodeMetricSections(st *core.SpannerState, need func(uint32) (*rdr, error)) error {
	if st.MetricKind == core.MetricEuclidean {
		pr, err := need(secPoints)
		if err != nil {
			return err
		}
		if st.Dim == 0 || st.N > len(pr.b)/8/max(st.Dim, 1) {
			return corruptf("section points: %d points x dim %d exceed payload", st.N, st.Dim)
		}
		st.Coords = make([]float64, st.N*st.Dim)
		for i := range st.Coords {
			st.Coords[i] = pr.f64()
		}
		return pr.done()
	}
	// Any other kind reaches core.ImportIncremental, which rejects
	// unknown kinds; the matrix payload decodes for MetricMatrix.
	mr, err := need(secMatrix)
	if err != nil {
		return err
	}
	if st.N > 0 && st.N > len(mr.b)/8/st.N {
		return corruptf("section matrix: %d x %d entries exceed payload", st.N, st.N)
	}
	st.Matrix = make([]float64, st.N*st.N)
	for i := range st.Matrix {
		st.Matrix[i] = mr.f64()
	}
	return mr.done()
}

// denseEdgesV1 maps a version-1 metric state's accepted edges from stable
// ids to dense ids: the idspace section lists the live stable ids in
// increasing order, and the i-th of them is dense id i. The map is
// monotone, so the edges keep their scan order.
func denseEdgesV1(st *core.SpannerState, capN int, need func(uint32) (*rdr, error)) error {
	ir, err := need(secIDSpace)
	if err != nil {
		return err
	}
	if len(ir.b) != 8*st.N {
		return corruptf("section idspace has %d bytes, want %d live ids", len(ir.b), st.N)
	}
	live := make([]int, st.N)
	for i := range live {
		sid := ir.u64()
		if sid >= uint64(capN) || (i > 0 && int(sid) <= live[i-1]) {
			return corruptf("section idspace: live id %d out of range or order", sid)
		}
		live[i] = int(sid)
	}
	dense := func(sid int) int {
		if i := sort.SearchInts(live, sid); i < len(live) && live[i] == sid {
			return i
		}
		return -1
	}
	for i, e := range st.Edges {
		u, v := dense(e.U), dense(e.V)
		if u < 0 || v < 0 {
			return corruptf("section edges: edge %d (%d, %d) touches no live id", i, e.U, e.V)
		}
		st.Edges[i].U, st.Edges[i].V = u, v
	}
	return nil
}

// decodeEdgeList reads a u64-counted edge list (u, v, weight bits).
func decodeEdgeList(r *rdr) ([]graph.Edge, error) {
	n, err := r.count("edge", 24)
	if err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, n)
	for i := range edges {
		u, v := r.u64(), r.u64()
		w := r.f64()
		if u > maxDecodeElems || v > maxDecodeElems {
			return nil, corruptf("section %s: edge %d endpoints out of range", r.sec, i)
		}
		edges[i] = graph.Edge{U: int(u), V: int(v), W: w}
	}
	return edges, r.done()
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
