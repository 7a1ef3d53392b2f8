// Package persist is the durability layer for maintained spanners: a
// versioned, digest-verified binary snapshot format for the maintained
// IncrementalSpanner state plus a write-ahead log of dynamic operations,
// with the crash-recovery guarantee the rest of the repo's robustness
// machinery demands — recovery after a crash at ANY point is bit-identical
// (result digest, counters included) to never having crashed.
//
// # On-disk layout
//
// A durable spanner lives in a directory holding one generation of state:
//
//	snap-<gen>   versioned snapshot (see format.go for the section layout)
//	wal-<gen>    write-ahead log of operations applied since the snapshot
//
// Every mutation is encoded, appended to the WAL (length-prefixed,
// FNV-1a-digested), and fsynced BEFORE it is applied in memory, so the log
// is never behind the state it protects. Checkpoint writes snap-<gen+1>
// atomically (temp file + fsync + rename + directory fsync), creates an
// empty wal-<gen+1> bound to the new snapshot's digest, and only then
// garbage-collects the old generation — at every instant at least one
// complete generation is on disk.
//
// # Recovery
//
// Open loads the newest snapshot whose header and per-section digests
// verify (an unreadable newer snapshot is dropped, never half-trusted),
// imports it through core.ImportIncremental, and applies the bound WAL's
// records in order. Replay applies each record's bookkeeping with every
// flush deferred — logged flushes and eager policies included — and then
// runs at most one flush, so recovery costs at most one rebuild however
// long the log is. The first torn or digest-failing record ends the
// replay at that exact prefix and the tail is truncated; a record that
// fails its digest is never applied, and a structurally invalid record
// with a valid digest (real corruption, impossible from a crash) surfaces
// as an error wrapping core.ErrCorruptState. Unknown format versions
// surface as ErrUnsupportedVersion; version-1 snapshots still load.
//
// # Crash injection
//
// Every IO point — each stage of a WAL append, each stage of an atomic
// snapshot or WAL-header write, each garbage-collected file, and each
// replayed record during recovery — consults Hooks.Crash with a
// deterministic sequence number. A firing hook materializes that point's
// worst-case surviving disk state (a torn half-record, an unsynced append
// rolled back, a renamed file lost before the directory entry was synced)
// and kills the Durable with ErrSimulatedCrash, so the chaos suite can
// enumerate every crash window and prove recovery equivalence at each one.
package persist
