package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/graph"
)

// readOp is one read query: a distance (or, one time in four, a path)
// between two vertices.
type readOp struct {
	path bool
	u, v int
}

// readAnswer is what a read returned, kept for the output check.
type readAnswer struct {
	op        readOp
	dist      float64
	reachable bool
}

// readLoad is the outcome of one closed-loop read phase.
type readLoad struct {
	latMS     []float64  // per-request latency, all clients
	atS       []float64  // when each latMS request returned, from the phase start
	zeroMS    []float64  // zero-work request latency (split phases)
	queryUS   []float64  // each real query re-issued directly (split phases)
	modelUS   []float64  // each real query's direct time plus the next zero-work latency
	ops       [][]readOp // per client, in issue order
	answers   []readAnswer
	attempted int
	failed    int
	elapsed   time.Duration
}

// readWindow is the span over which a read rate and tail latencies are
// taken. The machine's speed wanders, so a run reports the median over
// its windows rather than one figure over all of its reads.
const readWindow = time.Second

// windows splits the phase into whole readWindow-long windows (the
// remainder joins the last; a phase shorter than a window is one window)
// and returns each window's read rate and 90th- and 99th-percentile
// latency.
func (l *readLoad) windows() (qps, p90, p99 []float64) {
	k := max(1, int(l.elapsed/readWindow))
	lat := make([][]float64, k)
	for i, at := range l.atS {
		w := min(int(at/readWindow.Seconds()), k-1)
		lat[w] = append(lat[w], l.latMS[i])
	}
	for w, xs := range lat {
		span := readWindow.Seconds()
		if w == k-1 {
			span = l.elapsed.Seconds() - float64(k-1)*span
		}
		if len(xs) > 0 {
			qps = append(qps, float64(len(xs))/span)
			p90 = append(p90, quantile(xs, 0.9))
			p99 = append(p99, quantile(xs, 0.99))
		}
	}
	return qps, p90, p99
}

// readSummary pools the read phases of a run: every latency, and each
// window's read rate and tail latencies.
type readSummary struct {
	latMS, qps, p90, p99 []float64
}

func (s *readSummary) add(l *readLoad) {
	qps, p90, p99 := l.windows()
	s.latMS = append(s.latMS, l.latMS...)
	s.qps = append(s.qps, qps...)
	s.p90 = append(s.p90, p90...)
	s.p99 = append(s.p99, p99...)
}

// answersKept bounds how many answers per client are kept for checking.
const answersKept = 32

// readFunc answers one query for client c.
type readFunc func(c int, op readOp) (dist float64, reachable bool, err error)

// runReads drives `clients` closed-loop readers: each sends its next query
// only after the previous one returned. Queries are drawn from per-client
// generators seeded from seed, at three distance queries per path query.
// A non-nil split splits the phase for the traced run: every second
// request is then a zero-work one, with u == v, which exercises the
// serving path but no search, and the same client re-issues each real
// query through split right after the next real one returns (not right
// after its own, whose search would have left it a warm cache); both are
// timed apart, and each real query's direct time plus the zero-work
// latency that follows it models that read. The phase ends after dur, or
// when stop is closed if stop is non-nil.
func runReads(clients, n int, seed int64, dur time.Duration, stop <-chan struct{}, do, split readFunc) *readLoad {
	type clientLoad struct {
		lat     []float64
		at      []float64
		zero    []float64
		query   []float64
		ops     []readOp
		answers []readAnswer
		failed  int
	}
	per := make([]clientLoad, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &per[c]
			rng := rand.New(rand.NewSource(seed*1009 + int64(c)))
			for k := 0; ; k++ {
				if stop != nil {
					select {
					case <-stop:
						return
					default:
					}
				} else if time.Since(start) >= dur {
					return
				}
				zero, j := split != nil && k%2 == 1, k
				if split != nil {
					j = k / 2
				}
				op := readOp{path: j%4 == 3, u: rng.Intn(n), v: rng.Intn(n)}
				if zero {
					op.v = op.u
				}
				t0 := time.Now()
				d, ok, err := do(c, op)
				t1 := time.Now()
				ms := float64(t1.Sub(t0)) / 1e6
				if zero {
					cl.zero = append(cl.zero, ms)
				} else {
					cl.lat = append(cl.lat, ms)
					cl.at = append(cl.at, t1.Sub(start).Seconds())
					cl.ops = append(cl.ops, op)
					if split != nil && len(cl.ops) > 1 {
						t0 := time.Now()
						split(c, cl.ops[len(cl.ops)-2])
						cl.query = append(cl.query, float64(time.Since(t0))/1e3)
					}
				}
				if err != nil {
					cl.failed++
					continue
				}
				if !zero && len(cl.answers) < answersKept {
					cl.answers = append(cl.answers, readAnswer{op: op, dist: d, reachable: ok})
				}
			}
		}(c)
	}
	wg.Wait()
	l := &readLoad{elapsed: time.Since(start)}
	for _, cl := range per {
		l.latMS = append(l.latMS, cl.lat...)
		l.atS = append(l.atS, cl.at...)
		l.zeroMS = append(l.zeroMS, cl.zero...)
		l.queryUS = append(l.queryUS, cl.query...)
		for i := 0; i < min(len(cl.query), len(cl.zero)); i++ {
			l.modelUS = append(l.modelUS, cl.query[i]+1e3*cl.zero[i])
		}
		l.ops = append(l.ops, cl.ops)
		l.answers = append(l.answers, cl.answers...)
		l.attempted += len(cl.lat) + len(cl.zero)
		l.failed += cl.failed
	}
	return l
}

// directReads answers queries on g through the library's query path, one
// Searcher per client. Non-nil ctxs (one per client) install a
// context-checking stop predicate on every search, as spannerd's handlers
// do.
func directReads(g *graph.Graph, clients int, ctxs []context.Context) readFunc {
	searchers := make([]*graph.Searcher, clients)
	for i := range searchers {
		searchers[i] = graph.NewSearcher(g.N())
		if ctxs != nil {
			ctx := ctxs[i]
			searchers[i].SetStop(func() bool { return ctx.Err() != nil })
		}
	}
	return func(c int, op readOp) (float64, bool, error) {
		if op.path {
			_, d, ok := searchers[c].PathWithin(g, op.u, op.v, graph.Inf)
			return d, ok, nil
		}
		d, ok := searchers[c].BidirDistanceWithin(g, op.u, op.v, graph.Inf)
		return d, ok, nil
	}
}

// httpReads answers queries through spannerd's HTTP API at base.
func httpReads(client *http.Client, base string) readFunc {
	return func(_ int, op readOp) (float64, bool, error) {
		endpoint := "distance"
		if op.path {
			endpoint = "path"
		}
		resp, err := client.Get(fmt.Sprintf("%s/v1/%s?u=%d&v=%d", base, endpoint, op.u, op.v))
		if err != nil {
			return 0, false, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, false, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, false, fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		var out struct {
			Reachable bool    `json:"reachable"`
			Distance  float64 `json:"distance"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return 0, false, err
		}
		return out.Distance, out.Reachable, nil
	}
}

// checkAnswers compares kept answers with single-source Dijkstra on g and
// returns how many disagree.
func checkAnswers(g *graph.Graph, answers []readAnswer) int {
	bad := 0
	for _, a := range answers {
		want := g.Dijkstra(a.op.u).Dist[a.op.v]
		reachable := !math.IsInf(want, 1)
		if a.reachable != reachable || (reachable && math.Abs(a.dist-want) > 1e-9*math.Max(1, want)) {
			bad++
		}
	}
	return bad
}
