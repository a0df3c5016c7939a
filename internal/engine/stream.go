package engine

import (
	"context"

	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
)

// DefaultChunkSize is the paths-per-chunk bound applied when
// StreamOptions.ChunkSize is unset.
const DefaultChunkSize = 1024

// StreamOptions configures RunStream.
type StreamOptions struct {
	// ChunkSize bounds the number of paths per emitted chunk; <= 0
	// selects DefaultChunkSize.
	ChunkSize int
}

func (o StreamOptions) chunkSize() int {
	if o.ChunkSize <= 0 {
		return DefaultChunkSize
	}
	return o.ChunkSize
}

// Stream is a chunked, cancellable result cursor produced by RunStream.
// Chunks are emitted in the engine's deterministic result order, so the
// concatenation of all chunks is exactly the set Engine.Run would have
// returned — at every chunk size. A Stream is not safe for concurrent
// use: callers paging one stream from several goroutines must serialize
// Next calls (the query service pages byte ranges of its encoding).
type Stream struct {
	chunk  int
	cancel context.CancelFunc
	done   chan struct{} // closed when evaluation finished
	set    *pathset.Set  // evaluation result; written before done closes
	err    error         // evaluation error; written before done closes
	pos    int           // next unread position into set

	// g/epoch identify the graph view the evaluation ran against. A
	// published graph is immutable and compaction publishes a new one, so
	// the IDs inside the stream's paths resolve against g, which the
	// stream pins, for as long as it is referenced.
	g     *graph.Graph
	epoch uint64
	// footprint is the label footprint of the plan the evaluation ran.
	footprint graph.Footprint
}

// RunStream plans x like Run and evaluates the chosen plan in a
// background goroutine, returning immediately with a cursor over the
// eventual result. Next blocks until evaluation completes and then pages
// the result in chunks of at most the configured size. Cancelling ctx
// (or calling Stream.Cancel) aborts the evaluation promptly: the search
// stops at its next budget charge, and Next returns
// the cancellation cause (errors.Is context.Canceled /
// context.DeadlineExceeded; budget exhaustion stays
// core.ErrBudgetExceeded).
//
// Chunked delivery, not incremental production: the engine's operators
// are deterministic-order set operators, so results are materialized
// fully before the first chunk — what streaming buys is bounded-size
// pages for transport, a stable pagination order, and the ability to
// abandon the evaluation (or the unread tail) at any point.
func (e *Engine) RunStream(ctx context.Context, x core.PathExpr, o StreamOptions) *Stream {
	b := e.bind()
	ctx, cancel := context.WithCancel(ctx)
	s := &Stream{
		chunk:  o.chunkSize(),
		cancel: cancel,
		done:   make(chan struct{}),
		g:      b.g,
		epoch:  b.epoch,
	}
	ent := b.planTraced(ctx, x)
	s.footprint = ent.derived.Footprint
	sp := obs.SpanFrom(ctx).Start("eval")
	sp.SetInt("epoch", int64(b.epoch))
	evalCtx := obs.WithSpan(ctx, sp)
	go func() {
		defer close(s.done)
		defer cancel()
		// The eval span ends when the evaluation goroutine does —
		// the server's encode and deliver spans then run as its siblings.
		defer sp.End()
		// Last line of defense above the evaluators' own recovery: a panic
		// in engine-level operators becomes this stream's typed error (the
		// deferred close/cancel chain then runs normally) instead of
		// killing the process.
		defer func() {
			if r := recover(); r != nil {
				s.err = core.Recovered(r)
			}
		}()
		s.set, s.err = b.eval(evalCtx, ent.derived.Root)
		if s.set != nil {
			sp.SetInt("paths", int64(s.set.Len()))
		}
		e.noteEvalErr(s.err)
	}()
	return s
}

// StreamOf wraps an already-materialized result set in a Stream paging
// it in chunks of at most chunkSize (<= 0 selects DefaultChunkSize); g is
// the graph view the set was computed against (the view its path IDs
// must be rendered with).
func StreamOf(g *graph.Graph, set *pathset.Set, chunkSize int) *Stream {
	s := &Stream{
		chunk:  StreamOptions{ChunkSize: chunkSize}.chunkSize(),
		cancel: func() {},
		done:   make(chan struct{}),
		set:    set,
		g:      g,
	}
	close(s.done)
	return s
}

// Next returns the next chunk of at most the configured chunk size,
// blocking until the evaluation has completed. The chunk is a view of the
// result's paths, not a copy: callers must not modify it. Next returns
// (nil, nil) when the stream is exhausted, and the evaluation's error —
// typed: core.ErrBudgetExceeded, context.Canceled,
// context.DeadlineExceeded — on every call after a failure.
func (s *Stream) Next() ([]path.Path, error) {
	<-s.done
	if s.err != nil {
		return nil, s.err
	}
	if s.pos >= s.set.Len() {
		return nil, nil
	}
	hi := min(s.pos+s.chunk, s.set.Len())
	chunk := s.set.Paths()[s.pos:hi:hi]
	s.pos = hi
	return chunk, nil
}

// Cancel aborts the evaluation (the search stops at its next budget
// charge) and releases the stream's context resources. Idempotent;
// harmless after completion — already-delivered chunks stay valid, and
// the undelivered remainder of a completed result stays readable. Unlike
// Close it does not wait for the evaluation goroutine to exit.
func (s *Stream) Cancel() { s.cancel() }

// Close cancels the stream and waits for its evaluation goroutine to
// exit. Idempotent. After Close the already-read chunks stay valid: the
// graph view is immutable and reachable while referenced.
func (s *Stream) Close() {
	s.cancel()
	<-s.done
}

// Graph returns the graph view the stream's paths resolve against — on a
// live engine, the view of the epoch the stream evaluated. Render result
// paths with this graph, never with the engine's current one; the query
// service encodes the whole result with it once, then drops the stream.
func (s *Stream) Graph() *graph.Graph { return s.g }

// Epoch returns the epoch the stream evaluated against.
func (s *Stream) Epoch() uint64 { return s.epoch }

// Footprint returns the label footprint (see PlanFootprint) of the plan
// the stream evaluated at its epoch; zero for a StreamOf stream.
func (s *Stream) Footprint() graph.Footprint { return s.footprint }

// Done returns a channel closed when the evaluation has finished
// (successfully or not) and its evaluation goroutine has exited.
func (s *Stream) Done() <-chan struct{} { return s.done }

// Result blocks until evaluation completes and returns the full result
// set and error — Run's return values. The query service uses it to
// encode completed results; pagination state is unaffected.
func (s *Stream) Result() (*pathset.Set, error) {
	<-s.done
	return s.set, s.err
}

// Len returns the total number of result paths, blocking until the
// evaluation completes; 0 on error.
func (s *Stream) Len() int {
	<-s.done
	if s.set == nil {
		return 0
	}
	return s.set.Len()
}

// Pos returns the number of paths already delivered by Next.
func (s *Stream) Pos() int { return s.pos }
