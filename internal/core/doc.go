// Package core implements the paper's central object: the greedy spanner of
// Althöfer et al. (Algorithm 1 in Filtser–Solomon, "The Greedy Spanner is
// Existentially Optimal", PODC 2016), for both weighted graphs and finite
// metric spaces, together with the verifiers that realize the paper's
// optimality arguments — the Lemma 3 self-spanner property, the Lemma 8
// size-injection argument, and the MST-containment Observation 2.
//
// # The greedy algorithm
//
// The greedy algorithm examines candidate edges in non-decreasing weight
// order (ties broken by endpoint ids, so the scan is deterministic) and
// keeps edge (u, v) iff the current spanner distance delta_H(u, v) exceeds
// t * w(u, v). On graphs the candidates are the input's edges; on metrics
// they are all n(n-1)/2 interpoint distances ("path-greedy").
//
// # The batched scan and the frozen-snapshot invariant
//
// One batched scan serves both inputs: GreedyGraphParallel runs it over a
// graph's edges and GreedyMetricFastParallel over a metric's complete
// graph, the two entry points differing only in the candidate supply and
// the hub selection. The scan rests on one invariant: spanner distances only shrink as the greedy
// scan adds edges, so any skip certified against a frozen snapshot H0 of
// the growing spanner stays correct for every later spanner H ⊇ H0.
// Concretely, if delta_{H0}(u, v) <= t * w(u, v) then the sequential
// algorithm — which would test (u, v) against some H ⊇ H0 — would also
// skip it, because delta_H <= delta_{H0}. Certification is therefore safe
// to run concurrently against an immutable snapshot, out of greedy order;
// only the pairs the snapshot fails to certify are replayed serially, in
// exact greedy order, against the live spanner. Every accept/reject
// decision thus matches the sequential scan, and the output — edge
// sequence, weight, counters — is deterministic and bit-identical
// regardless of worker count, batch width, or goroutine scheduling.
// (The frozen-snapshot discipline — workers write only owner-indexed
// slots, never captured snapshot state — is machine-checked by the
// frozensnap analyzer; map-order and wall-clock nondeterminism in these
// paths by mapdet and detpure. See README "Static analysis".)
//
// A query the hub labels (below) leave open is answered by a bounded
// bidirectional decision search on the snapshot (two balls of radius
// ~t*w/2 instead of one of radius t*w). The scan runs in adaptive weight
// batches: the batch width grows
// while snapshots certify almost everything and shrinks when the snapshot
// goes stale too fast (too many pairs fall through to the serial
// re-check).
//
// # The streaming candidate supply
//
// The batched scan pulls their candidates from a CandidateSource
// instead of a materialized slice. The classic pipeline builds every
// candidate up front — all n(n-1)/2 interpoint pairs for metrics, a full
// copy of the edge list for graphs — and sorts it globally, so an
// n-point Euclidean instance pays Θ(n²) memory before the first greedy
// decision. The streamed sources exploit that the greedy scan only ever
// consumes candidates in non-decreasing weight order: one counting pass
// partitions the weights into geometric buckets [2^(e-1), 2^e), and only
// the active bucket is materialized and sorted (buckets above a
// configurable pair cap are first subdivided into narrower weight
// ranges), so supply memory is O(bucket cap) and sorting is O(B log B)
// per bucket instead of one global O(N log N). On Euclidean metrics the
// bucket is produced by the grid enumerator of internal/geom, which
// inspects only grid cells within the bucket's distance — pairs beyond
// the active weight scale are never even evaluated. The streamed order is
// exactly the materialized order (ties included), so engine output is
// bit-identical for any supply. The serial metric reference
// (GreedyMetricFastSerial) intentionally keeps the materialized pair list
// and the dense float64 bound matrix of Bose et al. [BCF+10] as the
// memory-comparison baseline and ground truth.
//
// # The hub-label certification fast path
//
// With the Hubs option the scan consults a HubOracle before paying any
// search (metric scans always do; see MetricParallelOptions.Hubs): k hub vertices (degree-selected on graphs, ball-growth-sampled
// on metrics) carry maintained distance arrays over the growing spanner,
// and the label bound min_h d(u,h)+d(h,v) certifies a skip in O(k). The
// soundness argument is one line: the label bound is the length of a real
// u–h–v walk in the spanner, so it dominates delta_H(u, v) by the
// triangle inequality — a hub-certified skip is a skip the exact engine
// would also take, and output stays bit-identical for every hub count.
// The labels certify from the other side too: on rows a sync just made exact,
// max_h |d(h,u) − d(h,v)| is a lower bound on delta_H(u, v) (and a hub
// reaching only one endpoint proves u and v disconnected), so a bound
// above t·w accepts the edge with no search. Arrays are maintained
// lazily: an accepted edge only shrinks distances, so each hub repairs by
// re-relaxing just the dirty radius the edge improves
// (graph.Searcher.RelaxNewEdge) instead of re-running Dijkstra, and
// between repairs the arrays are distances on a sub-spanner — still valid
// upper bounds. Across graph-mode incremental replays the
// arrays are rebased: synced to a preserved prefix they survive and repair
// forward; synced past the cut they restore a checkpoint or are refreshed
// in place.
//
// # Near ties
//
// The scan's fast primitives — label sums and differences and the
// bidirectional decision search — add path weights in other orders than
// the one-sided Dijkstra of GreedyGraph, so on a pair whose distance ties t·w
// to within rounding they could decide differently. One rule makes every
// decision canonical: a primitive decides only outside the band
// (t·w·(1−δ), t·w·(1+δ)], where δ = (n+2)·2^-50 exceeds the rounding of
// any path sum on n vertices, and a bound or found length inside the band
// is decided again by the one-sided reference search itself. Exact ties
// (integer weights) and near-ulp ties (weights in tenths) are
// equivalence-tested, on graphs and on their shortest-path metrics.
//
// # Incremental maintenance
//
// IncrementalSpanner maintains a greedy spanner under point insertions and
// deletions (metrics) and edge insertions and deletions (graphs); after
// every flushed batch its result is bit-identical to a from-scratch greedy
// build on the surviving input, counters included.
//
// In metric mode a flush is exactly that build: the greedy spanner is a
// function of the current input alone, so Insert and Delete only maintain
// the surviving point set (dense ids, in insertion order; Euclidean
// survivors stay Euclidean and keep the grid supply) and a flush runs
// GreedyMetricFastParallelOpts on it. Nothing is cached across flushes: a
// maintained replay that resumes the scan at the first disturbed position
// and carries cached bounds and hub arrays across updates measured at
// about one rebuild per flush, and about two for deletions, so metric mode
// does not keep one.
//
// In graph mode the maintained replay pays for itself, and stays. Every
// greedy decision depends only on the candidates and accepted edges
// before it, so an update can change decisions only from the earliest
// scan position it disturbs: for an inserted edge the position it
// occupies, for a deleted edge the earliest accepted edge it matches.
// Everything strictly before that cut is a decision the updated graph's
// scan repeats verbatim, so the engine keeps the accepted prefix and
// replays only the tail from a cut-resumed candidate source. Hub arrays
// are stamped with the accepted-edge prefix they are synced to: arrays at
// or below the cut are distances on a subgraph of every partial spanner
// the replay builds — adding edges only shrinks distances, so they can
// only overestimate — and repair forward; arrays past the cut restore the
// newest digest-verified checkpoint at or below it (a checkpoint whose
// digest fails is dropped, never restored) or are refreshed whole.
//
// # Cancellation, budgets, and the fault-containment invariant
//
// Every engine accepts an optional context and Budget (the Ctx and
// Budget option fields). Cancellation is observed at batch boundaries
// and, inside a batch, after each certification search but before its
// decision commits — a truncated search can report "not within reach"
// spuriously, so no decision derived from one is ever recorded (the
// ctxcommit analyzer machine-checks this check-before-commit shape). A
// cancelled or deadline-expired build returns the exact decided prefix
// (Result.Partial set) with ErrCancelled; worker pools are always
// joined before returning. Budget pressure walks a degradation ladder
// (materialized supply → streamed, narrower buckets, smaller batches,
// hub oracle dropped) in which every rung is output-invariant — each
// merely disables a fast path whose soundness argument never affected
// decisions — and is recorded in the stats' Degradations log. Worker
// panics are converted to ErrEnginePanic.
//
// The invariant the internal/chaos property suite enforces across the
// graph, metric, fault-tolerant, and incremental builds: any injected
// fault — worker panic, stalled certification, or cancellation at a
// randomized scan position — yields either output bit-identical to
// the serial reference or a clean typed error with the exact decided
// prefix; never silent divergence, never a leaked goroutine.
//
// # Durable state export
//
// ExportState flushes a maintained spanner's pending batch and captures
// its state — the surviving input in dense order, the accepted edge
// sequence, its weight and examined count, the batching policy, and in
// graph mode the hub arrays — as a SpannerState; ImportIncremental
// reconstructs an equivalent IncrementalSpanner from one. The round trip
// is exact: the reconstructed spanner answers Result, and every later
// update, bit-identically to the original (ResultDigest is the 64-bit
// fingerprint tests compare). internal/persist builds the on-disk layer on
// top of this pair: versioned digest-guarded snapshots of a SpannerState
// plus a write-ahead log of dynamic operations, with crash-recovery
// equivalence enforced by the internal/chaos Kill suite.
//
// # Machine-checked invariants
//
// The invariants above are enforced statically by the spannerlint suite
// (internal/analysis, driver cmd/spannerlint, run by CI and
// scripts/lint.sh): mapdet forbids unordered map iteration in this
// package and internal/graph; ctxcommit enforces the
// check-before-commit rule on bounded searches and context threading on
// engine entry points; frozensnap freezes captured state inside
// certification worker closures; detpure keeps wall-clock reads,
// math/rand, and map-ordered float accumulation out of decision paths;
// errtyped keeps the exported error surface dispatchable with
// errors.Is; and fsyncrename (internal/persist's scope) enforces the
// durability disciplines. Deliberate exemptions carry
// //spannerlint:ignore annotations whose reasons are part of this
// package's soundness documentation.
package core
