// Package fixture seeds ctxcommit violations and exemptions.
package fixture

import "context"

// searcher mimics graph.Searcher's bounded-query surface.
type searcher struct{}

func (searcher) BidirDistanceWithin(u, v int, limit float64) (float64, bool) {
	return float64(u + v), limit > 0
}

func (searcher) BidirDecideWithin(u, v int, limit float64) (float64, bool) {
	return float64(u + v), limit > 0
}

// wrapsSearch is search-like: it calls a bounded query and returns a
// non-error value, so its call sites are held to the same rule.
func wrapsSearch(s searcher) bool {
	_, ok := s.BidirDistanceWithin(0, 1, 2)
	return ok
}

// badDirect commits a bounded-search result with no check in between.
func badDirect(ctx context.Context, s searcher, out []bool) {
	_ = ctx
	_, within := s.BidirDistanceWithin(1, 2, 3) // want "bounded-search result committed without a cancellation check"
	out[0] = within
}

// badDecide commits a decision-only search result with no check in
// between: a stopped decision search reports "no path" as readily as a
// stopped distance search.
func badDecide(ctx context.Context, s searcher, out []bool) {
	_ = ctx
	_, within := s.BidirDecideWithin(1, 2, 3) // want "bounded-search result committed without a cancellation check"
	out[0] = within
}

// goodDecideChecked consults ctx.Err between the decision search and the
// commit.
func goodDecideChecked(ctx context.Context, s searcher, out []bool) error {
	_, within := s.BidirDecideWithin(1, 2, 3)
	if err := ctx.Err(); err != nil {
		return err
	}
	out[0] = within
	return nil
}

// badViaHelper hides the search behind one helper level.
func badViaHelper(ctx context.Context, s searcher, out []bool) {
	_ = ctx
	ok := wrapsSearch(s) // want "bounded-search result committed without a cancellation check"
	out[0] = ok
}

// goodChecked consults ctx.Err between the search and the commit.
func goodChecked(ctx context.Context, s searcher, out []bool) error {
	_, within := s.BidirDistanceWithin(1, 2, 3)
	if err := ctx.Err(); err != nil {
		return err
	}
	out[0] = within
	return nil
}

// goodAnnotated documents why the commit is safe without an inline check.
func goodAnnotated(ctx context.Context, s searcher, out []bool) {
	_ = ctx
	//spannerlint:ignore ctxcommit fixture models a post-join re-check that discards these results on truncation
	_, within := s.BidirDistanceWithin(1, 2, 3)
	out[0] = within
}

// noCarrier never mentions a cancellation carrier, so it has nothing to
// check against and is exempt by construction.
func noCarrier(s searcher, out []bool) {
	_, within := s.BidirDistanceWithin(1, 2, 3)
	out[0] = within
}

// GreedyFixture is an engine entry point with no context anywhere.
func GreedyFixture(n int) (int, error) { // want "does not thread a context"
	return n, nil
}

// GreedyFixtureCtx threads a context parameter.
func GreedyFixtureCtx(ctx context.Context, n int) (int, error) {
	_ = ctx
	return n, nil
}

// fixtureOptions carries a context the way engine options structs do.
type fixtureOptions struct {
	Ctx context.Context
}

// GreedyFixtureOpts threads a context through an options struct.
func GreedyFixtureOpts(n int, o fixtureOptions) (int, error) {
	_ = o
	return n, nil
}

// GreedyFixtureDelegate is a thin wrapper over a checked entry point.
func GreedyFixtureDelegate(n int) (int, error) {
	return GreedyFixtureCtx(context.Background(), n)
}

// FaultTolerantFixtureSerial is a deliberate, annotated serial reference.
func FaultTolerantFixtureSerial(n int) (int, error) { //spannerlint:ignore ctxcommit serial reference fixture is uncancellable by design
	return n, nil
}
