package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/persist"
)

// maxMutateBody bounds a mutation request body (coordinates for a few
// hundred thousand points) so a single client cannot balloon memory.
const maxMutateBody = 8 << 20

// edgeJSON is the wire shape of one weighted edge.
type edgeJSON struct {
	U int     `json:"u"`
	V int     `json:"v"`
	W float64 `json:"w"`
}

// mutateRequest is the wire shape of POST /v1/mutate. Exactly one of the
// payload fields is consulted, selected by Op.
type mutateRequest struct {
	// Op is one of insert-points, delete-points, insert-edges,
	// delete-edges.
	Op     string      `json:"op"`
	Points [][]float64 `json:"points,omitempty"` // insert-points: coordinate rows
	Ids    []int       `json:"ids,omitempty"`    // delete-points: dense positions
	Edges  []edgeJSON  `json:"edges,omitempty"`  // insert-edges / delete-edges
}

// handleMutate applies one durable mutation: validate, WAL-append, apply
// to the engine, publish a fresh snapshot. Failures after the op is
// logged are converged with retries — the WAL is the source of truth,
// and an acknowledged response always means "durable and served".
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, codeMethod, "use POST")
		return
	}
	var req mutateRequest
	body := http.MaxBytesReader(w, r.Body, maxMutateBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, codeInvalid, "malformed mutation body: "+err.Error())
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MutateTimeout)
	defer cancel()
	stop := context.AfterFunc(s.rootCtx, cancel)
	defer stop()

	select {
	case s.writer <- struct{}{}:
	case <-ctx.Done():
		s.writeCtxError(w, ctx.Err())
		return
	}
	defer func() { <-s.writer }()

	if err := s.wedgedErr(); err != nil {
		s.writeError(w, http.StatusInternalServerError, codeWedged, "mutation path wedged: "+err.Error())
		return
	}

	before := s.d.OpSeq()
	inc := s.d.Spanner()
	inc.SetContext(ctx)
	err := s.applyMutation(&req)
	inc.SetContext(context.Background())

	if err != nil {
		if s.d.OpSeq() == before {
			// Nothing reached the log: a clean rejection, nothing to
			// repair. A dead durable, though, means even validation
			// cannot be retried — wedge so the state is explicit.
			s.rejectMutation(w, err)
			return
		}
		// The op is durable but the engine lags it: converge or wedge.
		if cerr := s.converge(); cerr != nil {
			s.wedge(cerr)
			s.writeError(w, http.StatusInternalServerError, codeWedged,
				"mutation durable but not converged: "+cerr.Error())
			return
		}
	}

	if perr := s.publishNext(); perr != nil {
		s.wedge(perr)
		s.writeError(w, http.StatusInternalServerError, codeWedged,
			"mutation durable but snapshot publish failed: "+perr.Error())
		return
	}
	s.counters.Mutations.Add(1)
	st := s.Stats()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"version": st.Version,
		"opseq":   st.OpSeq,
		"digest":  fmt.Sprintf("%016x", st.Digest),
	})
}

// applyMutation dispatches one decoded request through the durable
// layer, which validates before logging.
func (s *Server) applyMutation(req *mutateRequest) error {
	switch req.Op {
	case "insert-points":
		return s.d.AppendPoints(req.Points)
	case "delete-points":
		return s.d.Delete(req.Ids...)
	case "insert-edges":
		return s.d.InsertEdges(toEdges(req.Edges)...)
	case "delete-edges":
		return s.d.DeleteEdges(toEdges(req.Edges)...)
	default:
		return fmt.Errorf("server: unknown mutation op %q: %w", req.Op, graph.ErrInvalidInput)
	}
}

func toEdges(in []edgeJSON) []graph.Edge {
	out := make([]graph.Edge, len(in))
	for i, e := range in {
		out[i] = graph.Edge{U: e.U, V: e.V, W: e.W}
	}
	return out
}

// rejectMutation maps an error from a mutation that logged nothing to
// its typed response.
func (s *Server) rejectMutation(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, graph.ErrInvalidInput):
		s.writeError(w, http.StatusBadRequest, codeInvalid, err.Error())
	case errors.Is(err, core.ErrCancelled), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.writeCtxError(w, err)
	case errors.Is(err, persist.ErrSimulatedCrash):
		s.wedge(err)
		s.writeError(w, http.StatusInternalServerError, codeWedged, "durable state crashed: "+err.Error())
	case errors.Is(err, core.ErrEnginePanic):
		s.writeError(w, http.StatusInternalServerError, codePanic, err.Error())
	default:
		s.writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
	}
}

// transientErr reports whether a convergence retry can clear err:
// cancellation vanishes with a fresh context, an injected panic fires
// once, and a guarded-row corruption dies with the aborted flush's bound
// rows — the retried flush proves fresh ones.
func transientErr(err error) bool {
	return errors.Is(err, core.ErrCancelled) ||
		errors.Is(err, core.ErrEnginePanic) ||
		errors.Is(err, core.ErrCorruptState)
}

// converge retries the engine-level flush until the maintained state
// catches up with the write-ahead log. It runs under the writer slot
// with a background context on purpose: the op is already durable, so
// abandoning convergence because the requesting client went away would
// leave the engine behind the log. Flush preserves the pre-flush state
// on every failure, so retrying is always sound; flush timing itself is
// output-invariant and needs no log record.
func (s *Server) converge() error {
	inc := s.d.Spanner()
	backoff := s.cfg.RetryBase
	var last error
	for attempt := 1; attempt <= s.cfg.RetryMax; attempt++ {
		err := inc.Flush()
		if hook := s.cfg.Hooks.OnConverge; hook != nil {
			hook(attempt, err)
		}
		if err == nil {
			return nil
		}
		s.counters.Converges.Add(1)
		last = err
		if !transientErr(err) {
			return err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	return fmt.Errorf("server: %d convergence retries exhausted: %w", s.cfg.RetryMax, last)
}

// publishNext publishes the engine's current state as the next snapshot
// version. Caller holds the writer slot.
func (s *Server) publishNext() error {
	return s.publish(s.snap.Load().version)
}

// handleCheckpoint rotates the durable generation on demand and
// republishes so stats reflect the new generation immediately.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, codeMethod, "use POST")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MutateTimeout)
	defer cancel()
	stop := context.AfterFunc(s.rootCtx, cancel)
	defer stop()

	select {
	case s.writer <- struct{}{}:
	case <-ctx.Done():
		s.writeCtxError(w, ctx.Err())
		return
	}
	defer func() { <-s.writer }()

	if err := s.wedgedErr(); err != nil {
		s.writeError(w, http.StatusInternalServerError, codeWedged, "mutation path wedged: "+err.Error())
		return
	}
	inc := s.d.Spanner()
	inc.SetContext(ctx)
	err := s.d.Checkpoint()
	inc.SetContext(context.Background())
	if err != nil {
		switch {
		case errors.Is(err, persist.ErrSimulatedCrash):
			s.wedge(err)
			s.writeError(w, http.StatusInternalServerError, codeWedged, "durable state crashed: "+err.Error())
		case errors.Is(err, core.ErrCancelled), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// Checkpoint's flush preserves the pre-flush state on error,
			// so a cancelled rotation is a clean no-op, not a wedge.
			s.writeCtxError(w, err)
		default:
			s.writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
		}
		return
	}
	if err := s.publishNext(); err != nil {
		s.wedge(err)
		s.writeError(w, http.StatusInternalServerError, codeWedged, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"gen": s.Stats().Gen})
}
