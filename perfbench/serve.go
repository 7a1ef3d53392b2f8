package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/persist"
	"repro/internal/server"
)

// serveStretch is spannerd's default stretch for a seeded state.
const serveStretch = 1.5

// walTail is how many mutations the crashed directory's WAL holds, and
// writesPerLife how many the write phase sends.
const (
	walTail       = 4
	writesPerLife = 4
)

// mutation is one point insert or delete, in spannerd's wire shape.
type mutation struct {
	insert bool
	point  []float64 // insert: the new point
	id     int       // delete: dense position
}

// body is the request body; Marshal cannot fail on these plain values.
func (m mutation) body() []byte {
	if m.insert {
		b, _ := json.Marshal(map[string]any{"op": "insert-points", "points": [][]float64{m.point}})
		return b
	}
	b, _ := json.Marshal(map[string]any{"op": "delete-points", "ids": []int{m.id}})
	return b
}

// applyTo returns the live point list after m (dense order preserved).
func (m mutation) applyTo(pts [][]float64) [][]float64 {
	if m.insert {
		return append(append([][]float64(nil), pts...), m.point)
	}
	out := append([][]float64(nil), pts[:m.id]...)
	return append(out, pts[m.id+1:]...)
}

// alternating draws k mutations from rng, insert first, then alternating
// insert and delete, for a state of liveN points.
func alternating(rng *rand.Rand, k, liveN int) []mutation {
	out := make([]mutation, k)
	for i := range out {
		if i%2 == 0 {
			out[i] = mutation{insert: true, point: []float64{rng.Float64() * 100, rng.Float64() * 100}}
			liveN++
		} else {
			out[i] = mutation{id: rng.Intn(liveN)}
			liveN--
		}
	}
	return out
}

// serveState is the crashed daemon's directory and everything the
// benchmark knows about what it holds.
type serveState struct {
	dir    string
	opts   persist.Options
	base   [][]float64 // points in the snapshot
	tail   []mutation  // logged after the snapshot, never checkpointed
	writes []mutation  // sent by the write phase
}

// pointsAfter returns the live points after the snapshot, the WAL tail
// and the first w writes.
func (s *serveState) pointsAfter(w int) [][]float64 {
	pts := s.base
	for _, m := range append(append([]mutation(nil), s.tail...), s.writes[:w]...) {
		pts = m.applyTo(pts)
	}
	return pts
}

// setupServe builds spannerd's seeded state in dir (uniform points in
// [0,100)^2, as spannerd -n seeds them), logs the WAL tail through the
// durable API and closes without a checkpoint, leaving what a crashed
// daemon leaves. The tail is logged under a coalescing policy set on the
// engine directly, so the policy itself is not logged and the tail's
// replays never run here: the files on disk are the same as if each op
// had been applied, and recovery still replays the ops one by one.
func setupServe(cfg *config, dir string) (*serveState, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	base := make([][]float64, cfg.sizes.serveN)
	for i := range base {
		base[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
	}
	st := &serveState{
		dir:  dir,
		opts: persist.Options{Metric: core.MetricParallelOptions{Workers: cfg.workers}},
		base: base,
	}
	st.tail = alternating(rng, walTail, len(base))
	st.writes = alternating(rng, writesPerLife, len(st.pointsAfter(0)))

	eu, err := metric.NewEuclidean(append([][]float64(nil), base...))
	if err != nil {
		return nil, err
	}
	inc, err := core.NewIncrementalMetric(eu, serveStretch, st.opts.Metric)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := persist.Create(dir, inc, st.opts)
	if err != nil {
		return nil, err
	}
	if err := d.Spanner().SetPolicy(core.IncrementalPolicy{CoalesceUntilQuery: true}); err != nil {
		d.Close()
		return nil, err
	}
	for _, m := range st.tail {
		if m.insert {
			err = d.AppendPoints([][]float64{m.point})
		} else {
			err = d.Delete(m.id)
		}
		if err != nil {
			d.Close()
			return nil, err
		}
	}
	return st, d.Close()
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// newestSnapshot returns the path of the highest-generation snapshot.
func newestSnapshot(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestGen := "", uint64(0)
	for _, e := range ents {
		g, err := strconv.ParseUint(strings.TrimPrefix(e.Name(), "snap-"), 10, 64)
		if err == nil && strings.HasPrefix(e.Name(), "snap-") && g >= bestGen {
			best, bestGen = filepath.Join(dir, e.Name()), g
		}
	}
	if best == "" {
		return "", fmt.Errorf("no snapshot in %s", dir)
	}
	return best, nil
}

// life is what one crash-restart lifecycle measured.
type life struct {
	recoverS  float64
	allocMB   float64
	reads     *readLoad // read phase
	writeRead *readLoad // reads during the write phase; nil if it was skipped
	mutateMS  []float64
	drainS    float64
	snapBytes int64

	recovered    *core.Result
	replayedOps  uint64
	ackedDigest  string
	reopenDigest string
	counters     map[string]uint64
	mutateFailed int
}

// lifecycle copies the crashed directory, recovers it, serves it through
// spannerd's server on a loopback listener (read phase, write phase,
// Drain) and reopens the drained directory. writes, asked once the read
// phase is over, says whether the write phase runs. traced splits the
// read phase into serving path and query time (see runReads).
func lifecycle(cfg *config, st *serveState, dir string, traced bool, writes func() bool) (*life, error) {
	d, res, recoverS, allocMB, err := recoverCopy(st, dir)
	if err != nil {
		return nil, err
	}
	l := &life{recoverS: recoverS, allocMB: allocMB, recovered: res, replayedOps: d.OpSeq()}

	srv, err := server.New(server.Config{Durable: d})
	if err != nil {
		d.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * cfg.clients(), DisableCompression: true}
	client := &http.Client{Transport: transport, Timeout: time.Minute}
	base := "http://" + ln.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-served
		transport.CloseIdleConnections()
	}()

	n := res.N
	var split readFunc
	if traced {
		// The split re-issues each real query the way spannerd's handlers
		// search, with a context-checking stop predicate, right after it
		// returns, so the HTTP, zero-work and direct times all see the
		// same load and machine speed.
		ctxs := make([]context.Context, cfg.clients())
		for i := range ctxs {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctxs[i] = ctx
		}
		split = directReads(res.Graph(), cfg.clients(), ctxs)
	}
	runtime.GC()
	l.reads = runReads(cfg.clients(), n, cfg.seed, cfg.sizes.serveReads, nil, httpReads(client, base), split)

	// Write phase: one client sends the mutations in order while another
	// keeps reading. Inserts and deletes alternate, so every vertex
	// below n stays valid throughout.
	if writes() {
		stop := make(chan struct{})
		readDone := make(chan *readLoad, 1)
		go func() {
			readDone <- runReads(cfg.clients(), n, cfg.seed+1, 0, stop, httpReads(client, base), nil)
		}()
		for _, m := range st.writes {
			t0 := time.Now()
			digest, err := postMutation(client, base, m)
			l.mutateMS = append(l.mutateMS, float64(time.Since(t0))/1e6)
			if err != nil {
				l.mutateFailed++
				continue
			}
			l.ackedDigest = digest
		}
		close(stop)
		l.writeRead = <-readDone
	}

	t0 := time.Now()
	derr := srv.Drain(context.Background())
	l.drainS = time.Since(t0).Seconds()
	l.counters = srv.CounterValues()
	if derr != nil {
		return nil, fmt.Errorf("drain: %w", derr)
	}
	snap, err := newestSnapshot(dir)
	if err != nil {
		return nil, err
	}
	info, err := os.Stat(snap)
	if err != nil {
		return nil, err
	}
	l.snapBytes = info.Size()

	d, err = persist.Open(dir, st.opts)
	if err != nil {
		return nil, fmt.Errorf("reopen after drain: %w", err)
	}
	defer d.Close()
	res, err = d.Result()
	if err != nil {
		return nil, fmt.Errorf("reopen after drain: %w", err)
	}
	l.reopenDigest = fmt.Sprintf("%016x", core.ResultDigest(res))
	return l, nil
}

// postMutation sends one mutation and returns the acknowledged digest.
func postMutation(client *http.Client, base string, m mutation) (string, error) {
	resp, err := client.Post(base+"/v1/mutate", "application/json", bytes.NewReader(m.body()))
	if err != nil {
		return "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("mutate status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return "", err
	}
	return out.Digest, nil
}

// scratchDigest builds the spanner of the surviving points from scratch.
func scratchDigest(cfg *config, pts [][]float64) (string, error) {
	eu, err := metric.NewEuclidean(pts)
	if err != nil {
		return "", err
	}
	res, err := core.GreedyMetricFastParallelOpts(eu, serveStretch, core.MetricParallelOptions{Workers: cfg.workers})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", core.ResultDigest(res)), nil
}

// checkLife runs the output checks of one lifecycle against the expected
// post-write digest. Without a write phase, the reopened state must be the
// recovered one.
func checkLife(rep *report, l *life, want string) {
	rep.ops(l.reads.attempted, l.reads.failed)
	rep.check(checkAnswers(l.recovered.Graph(), l.reads.answers) == 0, "a read answer disagrees with Dijkstra on the recovered spanner")
	if l.writeRead == nil {
		recovered := fmt.Sprintf("%016x", core.ResultDigest(l.recovered))
		rep.check(l.reopenDigest == recovered, "reopen after a read-only Drain gives digest %s, recovered %s", l.reopenDigest, recovered)
		return
	}
	rep.ops(l.writeRead.attempted, l.writeRead.failed)
	rep.ops(len(l.mutateMS), l.mutateFailed)
	rep.check(l.ackedDigest == want, "last acknowledged digest %s, from-scratch build on the surviving points %s", l.ackedDigest, want)
	rep.check(l.reopenDigest == l.ackedDigest, "reopen after Drain gives digest %s, last acknowledged %s", l.reopenDigest, l.ackedDigest)
}

// always is the write-phase decision of a lifecycle that always writes.
func always() bool { return true }

// runServe is the serve-restart workload.
func runServe(cfg *config, rep *report) error {
	root := filepath.Join(cfg.outDir, "work")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(root, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// A traced run does not report set-up time, so it sets up once.
	reps := cfg.sizes.setupReps
	if cfg.trace {
		reps = 1
	}
	var st *serveState
	var setup []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := setupServe(cfg, filepath.Join(work, fmt.Sprintf("crashed-%d", i)))
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		st = s
	}
	rep.setSamples("setup_s", "s", setup)
	want, err := scratchDigest(cfg, st.pointsAfter(len(st.writes)))
	if err != nil {
		return fmt.Errorf("from-scratch build: %w", err)
	}
	if cfg.trace {
		return traceServe(cfg, st, work, want, rep)
	}

	var recov, alloc, drain, snapMB, writeReads, mutate []float64
	reads := &readSummary{}
	var firstRecovered string
	// Lifecycles repeat, read phase only, until the timed loop stops; the
	// decision falls after each read phase, and the last lifecycle runs
	// the write phase before its Drain.
	loop := newTimedLoop(cfg.seconds)
	loop.next()
	for i, last := 0, false; !last; i++ {
		l, err := lifecycle(cfg, st, filepath.Join(work, fmt.Sprintf("life-%d", i)), false, func() bool {
			last = !loop.next()
			return last
		})
		if err != nil {
			return err
		}
		checkLife(rep, l, want)
		digest := fmt.Sprintf("%016x", core.ResultDigest(l.recovered))
		if i == 0 {
			firstRecovered = digest
		}
		rep.check(digest == firstRecovered, "recovered digest %s differs from the first recovery's %s", digest, firstRecovered)
		recov = append(recov, l.recoverS)
		alloc = append(alloc, l.allocMB)
		reads.add(l.reads)
		if l.writeRead != nil {
			drain = append(drain, l.drainS)
			snapMB = append(snapMB, float64(l.snapBytes)/(1<<20))
			writeReads = append(writeReads, l.writeRead.latMS...)
			mutate = append(mutate, l.mutateMS...)
		}
	}
	rep.setSamples("ready_s", "s", recov)
	rep.setSamples("alloc_mb", "MB", alloc)
	reportReads(rep, reads)
	rep.setSamples("read_p50_write_ms", "ms", writeReads)
	rep.setSamples("mutate_ms", "ms", mutate)
	rep.setSamples("drain_s", "s", drain)
	rep.setSamples("snapshot_mb", "MB", snapMB)
	rep.note("recovered digest %s  final digest %s", firstRecovered, want)
	return nil
}

// traceServe is the traced run of serve-restart: one lifecycle with its
// read phase split, then recovery and the write phase replayed layer by
// layer on fresh copies of the crashed directory.
func traceServe(cfg *config, st *serveState, work, want string, rep *report) error {
	tr := newTracer(cfg.runID())
	defer cfg.writeTrace(rep, tr)

	t0 := time.Now()
	l, err := lifecycle(cfg, st, filepath.Join(work, "life"), true, always)
	if err != nil {
		return err
	}
	tr.record("serve.lifecycle", 0, t0, time.Now(), 1)
	checkLife(rep, l, want)
	readP50 := quantile(l.reads.latMS, 0.5)
	rep.set("read_p50_ms", "ms", readP50)
	rep.set("read_p50_write_ms", "ms", quantile(l.writeRead.latMS, 0.5))
	rep.set("mutate_ms", "ms", quantile(l.mutateMS, 0.5))
	rep.set("drain_s", "s", l.drainS)
	rep.set("snapshot_mb", "MB", float64(l.snapBytes)/(1<<20))
	for _, c := range []string{"served", "shed", "cancelled"} {
		rep.set("server."+c, "count", float64(l.counters[c]))
	}

	// Recovery, layer by layer, in rounds that put a persist.Open recovery
	// next to the outside split of the same work, each on a fresh copy.
	var recov, covered []float64
	var replayed uint64
	for round := 0; round < recoverRounds; round++ {
		var opened float64
		open := func() error {
			d, res, seconds, _, err := recoverCopy(st, filepath.Join(work, fmt.Sprintf("open-%d", round)))
			if err != nil {
				return err
			}
			d.Close()
			opened = seconds
			sameDigest(rep, "persist.Open recovery against the lifecycle's", res, l.recovered)
			return nil
		}
		// Odd rounds split first, so a steady change in machine speed
		// favours neither side.
		if round%2 == 0 {
			if err := open(); err != nil {
				return err
			}
		}
		res, snapOps, parts, err := splitRecovery(st, filepath.Join(work, fmt.Sprintf("split-%d", round)), tr)
		if err != nil {
			return err
		}
		if round%2 == 1 {
			if err := open(); err != nil {
				return err
			}
		}
		recov = append(recov, opened)
		covered = append(covered, parts/opened)
		sameDigest(rep, "outside recovery replay against persist.Open", res, l.recovered)
		replayed = l.replayedOps - snapOps
		rep.check(int(replayed) == len(st.tail), "persist.Open replayed %d ops, the WAL tail holds %d", replayed, len(st.tail))
	}
	medianOf := func(name string) float64 {
		var xs []float64
		for _, sp := range tr.spans {
			if sp.Name == name {
				xs = append(xs, float64(sp.End-sp.Start)/1e9)
			}
		}
		return quantile(xs, 0.5)
	}
	recoverS := quantile(recov, 0.5)
	readS, decodeS := medianOf("persist.snapshot.read"), medianOf("persist.snapshot.decode")
	walS, importS := medianOf("persist.wal.read"), medianOf("core.import")
	replayS := medianOf("persist.wal.replay")
	rep.set("recover_s", "s", recoverS)
	rep.set("persist.snapshot.read_s", "s", readS)
	rep.set("persist.wal.read_s", "s", walS)
	rep.set("persist.snapshot.decode_s", "s", decodeS)
	rep.set("core.import_s", "s", importS)
	rep.set("persist.wal.replay_s", "s", replayS)
	rep.set("persist.wal.replayed_ops", "count", float64(replayed))
	// Each round's split is compared with the Open next to it, which ran
	// at about the same machine speed.
	rep.gate("coverage.recover", quantile(covered, 0.5))

	// Reads: the recorded query sequence replayed on the recovered graph,
	// and the zero-work requests' latency for the serving path alone. Both
	// are skewed, so medians do not add: the gate compares the median read
	// with the median over reads of each read's own query time plus the
	// zero-work latency measured next to it.
	httpUS := 1e3 * quantile(l.reads.zeroMS, 0.5)
	rep.set("graph.query.us", "us", quantile(l.reads.queryUS, 0.5))
	rep.set("server.http.us", "us", httpUS)
	rep.gate("coverage.read", quantile(l.reads.modelUS, 0.5)/1e3/readP50)

	// Writes: the write phase replayed on a recovered copy under
	// CoalesceUntilQuery, so the WAL append (log plus fsync) and the engine
	// flush are timed apart, followed by what the server does to publish a
	// snapshot (materialize the graph, digest the result).
	dir := filepath.Join(work, "writes")
	if err := copyDir(st.dir, dir); err != nil {
		return err
	}
	d, err := persist.Open(dir, st.opts)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.SetPolicy(core.IncrementalPolicy{CoalesceUntilQuery: true}); err != nil {
		return err
	}
	wid := tr.begin("serve.writes.replay", 0)
	var appendMS, flushMS, publishMS []float64
	for _, m := range st.writes {
		t0 := time.Now()
		if m.insert {
			err = d.AppendPoints([][]float64{m.point})
		} else {
			err = d.Delete(m.id)
		}
		if err != nil {
			return fmt.Errorf("write replay: %w", err)
		}
		t1 := time.Now()
		tr.record("persist.wal.append", wid, t0, t1, 1)
		res, err := d.Result()
		if err != nil {
			return fmt.Errorf("write replay flush: %w", err)
		}
		t2 := time.Now()
		tr.record("core.flush", wid, t1, t2, 1)
		res.Graph()
		core.ResultDigest(res)
		t3 := time.Now()
		tr.record("server.publish", wid, t2, t3, 1)
		appendMS = append(appendMS, float64(t1.Sub(t0))/1e6)
		flushMS = append(flushMS, float64(t2.Sub(t1))/1e6)
		publishMS = append(publishMS, float64(t3.Sub(t2))/1e6)
	}
	t0 = time.Now()
	if err := d.Checkpoint(); err != nil {
		return err
	}
	tr.record("persist.checkpoint", wid, t0, time.Now(), 1)
	tr.end(wid, len(st.writes))
	res, err := d.Result()
	if err != nil {
		return err
	}
	rep.check(fmt.Sprintf("%016x", core.ResultDigest(res)) == l.ackedDigest,
		"coalesced write replay digest %016x, served %s", core.ResultDigest(res), l.ackedDigest)
	snap, err := newestSnapshot(dir)
	if err != nil {
		return err
	}
	info, err := os.Stat(snap)
	if err != nil {
		return err
	}
	ckptS, _, _ := tr.total("persist.checkpoint")
	rep.set("persist.wal.append_ms", "ms", quantile(appendMS, 0.5))
	rep.set("core.flush_ms", "ms", quantile(flushMS, 0.5))
	rep.set("server.publish_ms", "ms", quantile(publishMS, 0.5))
	rep.set("persist.checkpoint_s", "s", ckptS)
	rep.set("persist.snapshot_bytes", "bytes", float64(info.Size()))
	return nil
}

// recoverRounds is how many times a traced run times recovery both ways,
// in pairs.
const recoverRounds = 3

// recoverCopy copies the crashed directory to dir and recovers it with
// persist.Open. It returns the open durable, its result, the time until
// the result was available and what the recovery allocated, in MB.
func recoverCopy(st *serveState, dir string) (*persist.Durable, *core.Result, float64, float64, error) {
	if err := copyDir(st.dir, dir); err != nil {
		return nil, nil, 0, 0, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	d, err := persist.Open(dir, st.opts)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("recover: %w", err)
	}
	res, err := d.Result()
	if err != nil {
		d.Close()
		return nil, nil, 0, 0, fmt.Errorf("recover: %w", err)
	}
	seconds := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return d, res, seconds, float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), nil
}

// splitRecovery does persist.Open's work on a fresh copy from outside, one
// layer at a time: read the newest snapshot and the WAL, decode the
// snapshot, import it, then apply the logged tail to the imported engine.
// It returns the result, the snapshot's op count and the seconds the
// layer spans cover.
func splitRecovery(st *serveState, dir string, tr *tracer) (*core.Result, uint64, float64, error) {
	if err := copyDir(st.dir, dir); err != nil {
		return nil, 0, 0, err
	}
	snap, err := newestSnapshot(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	runtime.GC()
	rid := tr.begin("persist.recover", 0)
	t0 := time.Now()
	data, err := os.ReadFile(snap)
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	tr.record("persist.snapshot.read", rid, t0, t1, len(data))
	state, snapOps, err := persist.DecodeSnapshot(data)
	if err != nil {
		return nil, 0, 0, err
	}
	t2 := time.Now()
	tr.record("persist.snapshot.decode", rid, t1, t2, 1)
	wal, err := os.ReadFile(strings.Replace(snap, "snap-", "wal-", 1))
	if err != nil {
		return nil, 0, 0, err
	}
	t3 := time.Now()
	tr.record("persist.wal.read", rid, t2, t3, len(wal))
	inc, err := core.ImportIncremental(state, st.opts.Metric, st.opts.Graph)
	if err != nil {
		return nil, 0, 0, err
	}
	t4 := time.Now()
	tr.record("core.import", rid, t3, t4, 1)
	pts := st.base
	for _, m := range st.tail {
		pts = m.applyTo(pts)
		if m.insert {
			var eu *metric.Euclidean
			if eu, err = metric.NewEuclidean(pts); err == nil {
				err = inc.Insert(eu)
			}
		} else {
			err = inc.Delete(m.id)
		}
		if err != nil {
			return nil, 0, 0, fmt.Errorf("outside replay: %w", err)
		}
	}
	t5 := time.Now()
	tr.record("persist.wal.replay", rid, t4, t5, len(st.tail))
	tr.end(rid, len(st.tail))
	res, err := inc.Result()
	return res, snapOps, t5.Sub(t0).Seconds(), err
}
