package exec

import (
	"dqo/internal/expr"
	"dqo/internal/physical"
	"dqo/internal/storage"
)

// ---------------------------------------------------------------------------
// Scan: streams a base relation in morsel-sized zero-copy chunks.

// Scan emits rows [0, N) of a materialised relation, one morsel per Next.
type Scan struct {
	base
	rel     *storage.Relation
	pos     int
	started bool
}

// NewScan returns a scan over rel.
func NewScan(label Labeler, rel *storage.Relation) *Scan {
	return &Scan{base: base{label: label}, rel: rel}
}

// Open implements Operator.
func (s *Scan) Open(ec *ExecContext) error { s.pos, s.started = 0, false; return nil }

// Next implements Operator.
func (s *Scan) Next(ec *ExecContext) (*storage.Relation, error) {
	defer s.timed()()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	n := s.rel.NumRows()
	if s.pos >= n {
		if s.started {
			return nil, nil
		}
		// Empty relation: emit its schema once.
		s.started = true
		batch := s.rel.Slice(0, 0)
		s.emitted(batch)
		return batch, nil
	}
	hi := s.pos + ec.MorselSize
	if hi > n {
		hi = n
	}
	batch := s.rel.Slice(s.pos, hi)
	s.pos = hi
	s.started = true
	s.emitted(batch)
	return batch, nil
}

// Close implements Operator.
func (s *Scan) Close(ec *ExecContext) error { return nil }

// Children implements Operator.
func (s *Scan) Children() []Operator { return nil }

// ---------------------------------------------------------------------------
// Filter: per-morsel predicate evaluation.

// Filter emits the rows of each input batch satisfying a predicate, with
// the columns its ancestors read.
type Filter struct {
	base
	child Operator
	pred  expr.Expr
	keep  []string
}

// NewFilter returns a filter of child by pred whose batches keep the columns
// keep names (nil: every column); the predicate may read columns keep drops.
func NewFilter(label Labeler, child Operator, pred expr.Expr, keep []string) *Filter {
	return &Filter{base: base{label: label}, child: child, pred: pred, keep: keep}
}

// Open implements Operator.
func (f *Filter) Open(ec *ExecContext) error { return f.child.Open(ec) }

// Next implements Operator.
func (f *Filter) Next(ec *ExecContext) (*storage.Relation, error) {
	defer f.timed()()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	in, err := f.child.Next(ec)
	if err != nil || in == nil {
		return nil, err
	}
	f.addRowsIn(int64(in.NumRows()))
	// FilterRel is morsel-decomposable (see its contract in
	// internal/physical), so the bulk kernel applies per batch unchanged.
	batch, err := physical.FilterRel(in, f.pred, f.keep, ec.ctl.Scratch)
	if err != nil {
		return nil, err
	}
	f.emitted(batch)
	return batch, nil
}

// Close implements Operator.
func (f *Filter) Close(ec *ExecContext) error { return f.child.Close(ec) }

// Children implements Operator.
func (f *Filter) Children() []Operator { return []Operator{f.child} }

// ---------------------------------------------------------------------------
// Project: per-morsel column selection (zero-copy).

// Project restricts each input batch to the named columns.
type Project struct {
	base
	child Operator
	cols  []string
}

// NewProject returns a projection of child to cols.
func NewProject(label Labeler, child Operator, cols []string) *Project {
	return &Project{base: base{label: label}, child: child, cols: cols}
}

// Open implements Operator.
func (p *Project) Open(ec *ExecContext) error { return p.child.Open(ec) }

// Next implements Operator.
func (p *Project) Next(ec *ExecContext) (*storage.Relation, error) {
	defer p.timed()()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	in, err := p.child.Next(ec)
	if err != nil || in == nil {
		return nil, err
	}
	p.addRowsIn(int64(in.NumRows()))
	batch, err := physical.ProjectRel(in, p.cols...)
	if err != nil {
		return nil, err
	}
	p.emitted(batch)
	return batch, nil
}

// Close implements Operator.
func (p *Project) Close(ec *ExecContext) error { return p.child.Close(ec) }

// Children implements Operator.
func (p *Project) Children() []Operator { return []Operator{p.child} }

// ---------------------------------------------------------------------------
// Limit: early-exit row cap.

// Limit emits at most n rows and then stops pulling its input entirely —
// LIMIT queries do only the work needed to produce the first n rows of
// whatever order the plan below yields. As soon as the cap is reached, the
// child is closed early, which cancels any in-flight sibling morsel tasks a
// parallel pipeline below may still be running (all Close implementations
// are idempotent, so the final tree Close is a no-op for the child).
type Limit struct {
	base
	child  Operator
	n      int
	seen   int
	done   bool
	closed bool
}

// NewLimit returns a limit of child to n rows.
func NewLimit(child Operator, n int) *Limit {
	return &Limit{base: base{label: Text("Limit")}, child: child, n: n}
}

// Open implements Operator.
func (l *Limit) Open(ec *ExecContext) error {
	l.seen, l.done, l.closed = 0, false, false
	return l.child.Open(ec)
}

// finish closes the child early, once.
func (l *Limit) finish(ec *ExecContext) error {
	l.done = true
	if l.closed {
		return nil
	}
	l.closed = true
	return l.child.Close(ec)
}

// Next implements Operator.
func (l *Limit) Next(ec *ExecContext) (*storage.Relation, error) {
	defer l.timed()()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	if l.done {
		return nil, nil
	}
	in, err := l.child.Next(ec)
	if err != nil {
		return nil, err
	}
	if in == nil {
		if err := l.finish(ec); err != nil {
			return nil, err
		}
		return nil, nil
	}
	l.addRowsIn(int64(in.NumRows()))
	if remaining := l.n - l.seen; in.NumRows() > remaining {
		in = in.Slice(0, remaining)
	}
	l.seen += in.NumRows()
	if l.seen >= l.n {
		if err := l.finish(ec); err != nil {
			return nil, err
		}
	}
	l.emitted(in)
	return in, nil
}

// Close implements Operator.
func (l *Limit) Close(ec *ExecContext) error {
	if l.closed {
		return nil
	}
	l.closed = true
	return l.child.Close(ec)
}

// Children implements Operator.
func (l *Limit) Children() []Operator { return []Operator{l.child} }
