package vm

import (
	"context"

	"circuitql/internal/guard"
)

// DefaultStreamBatch is the batch size EvalStream uses when the caller
// passes one ≤ 0: large enough to amortize the per-batch decode and
// transpose, small enough that a stream holds only a bounded window of
// inputs and outputs in memory.
const DefaultStreamBatch = 256

// EvalStream pulls input vectors from next and pushes output vectors to
// emit, running the program over windows of at most batchSize requests
// in lock-step. It is EvalBatch for inputs that do not fit (or should
// not materialize) in memory — a columnar disk scan, a network feed —
// holding O(batchSize) vectors regardless of stream length.
//
// next returns the next input vector, or ok=false at end of stream; the
// vector is copied into the lane slab before next is called again, so
// the producer may reuse its buffer. emit receives each window's
// outputs in input order and may keep the slices (they are freshly
// allocated per window); a non-nil error from emit stops the stream and
// is returned.
func (p *Program) EvalStream(ctx context.Context, batchSize int, next func() ([]Word, bool), emit func([][]Word) error) error {
	if batchSize <= 0 {
		batchSize = DefaultStreamBatch
	}
	window := make([][]Word, 0, batchSize)
	backing := make([]Word, batchSize*p.NumInputs())
	for {
		window = window[:0]
		for len(window) < batchSize {
			in, ok := next()
			if !ok {
				break
			}
			row := backing[len(window)*p.NumInputs():][:p.NumInputs():p.NumInputs()]
			n := copy(row, in)
			if n != len(in) || n != p.NumInputs() {
				return guard.Invalidf("vm: stream input has %d values, want %d", len(in), p.NumInputs())
			}
			window = append(window, row)
		}
		if len(window) == 0 {
			return nil
		}
		outs, err := p.EvalBatch(ctx, window)
		if err != nil {
			return err
		}
		if err := emit(outs); err != nil {
			return err
		}
		if len(window) < batchSize {
			return nil // next reported end of stream
		}
	}
}
