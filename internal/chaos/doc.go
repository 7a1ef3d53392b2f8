// Package chaos is the fault-injection harness for the spanner engines.
//
// It turns the engines' InjectionHooks surface into reproducible fault
// schedules: a Schedule names one fault class (worker panic, stalled
// certification, or context cancellation at a randomized scan position)
// and the deterministic trigger point it fires at; an Injector arms the schedule and exposes the hooks plus the
// context the engine should run under.
//
// The property suite in chaos_test.go drives randomized schedules against
// the graph, metric, fault-tolerant, and maintained builds and asserts the robustness invariant the engines
// document:
//
//	any injected fault yields either output bit-identical to the serial
//	reference (the fault fired past the scan's end, or was absorbed) or a
//	clean typed error with the exact decided prefix — never silent
//	divergence, never a leaked goroutine.
//
// Schedules are deterministic: the same seed produces the same trigger
// positions, so a failing schedule replays exactly under `go test -run`.
package chaos
