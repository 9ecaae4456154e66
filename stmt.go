package dqo

import (
	"context"
	"sync/atomic"

	"dqo/internal/core"
	"dqo/internal/logical"
	"dqo/internal/sql"
)

// Stmt is a prepared statement: a SQL text parsed and name-checked once,
// with positional "?" parameters in the WHERE/HAVING clauses left open.
// Executing it substitutes typed literals for the parameters and plans
// through the parameterised template cache — the first execution enumerates
// a plan for the statement's shape, every later execution (any argument
// values) rebinds the cached plan with zero enumeration, whether or not the
// DB-level plan cache is enabled. This is the Section 3 offline-vs-query-time
// trade made explicit: a prepared statement pays deep optimisation once and
// amortises it over every execution.
//
// Everything about a statement that does not depend on its arguments is
// computed once: the fingerprint that prefixes its plan-cache keys at
// Prepare, and — each time the DB's catalog has changed since (a table
// registered, compressed or decompressed, the views dropped) — the statement
// bound to the registered tables and the optimiser mode over the view
// catalog. An execution substitutes its arguments into the filters of that
// bound tree and nothing else.
//
// A Stmt is safe for concurrent use; the network serving layer executes one
// session's statement from many requests at once.
type Stmt struct {
	db          *DB
	mode        Mode
	text        string
	tmpl        *sql.SelectStmt
	fingerprint string
	bound       atomic.Pointer[boundStmt]
}

// boundStmt is the part of a prepared statement that depends on the DB's
// catalog, valid while the catalog stays at epoch.
type boundStmt struct {
	epoch uint64
	node  logical.Node // tmpl bound to the tables; parameters still open
	mode  core.Mode    // the statement's mode over the view catalog
}

// Prepare parses and name-checks a query for repeated execution under the
// given mode. The query may contain positional "?" parameters anywhere a
// WHERE/HAVING literal is allowed:
//
//	stmt, err := db.Prepare(dqo.ModeDQOCalibrated,
//	    "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID WHERE R.A < ? GROUP BY R.A")
//	res, err := stmt.Query(ctx, 100)
//
// Unknown tables or columns are reported here rather than at execution;
// argument type mismatches surface when the query runs. A statement outlives
// changes to the tables it names: the execution after a table is replaced
// binds to the new table, and fails with the binder's error if the statement
// no longer fits it.
func (db *DB) Prepare(mode Mode, query string) (*Stmt, error) {
	if _, err := mode.coreMode(); err != nil {
		return nil, err
	}
	tmpl, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	s := &Stmt{db: db, mode: mode, text: query, tmpl: tmpl,
		fingerprint: mode.String() + "|" + sql.Fingerprint(tmpl)}
	// Binding resolves names and cannot depend on argument values, so the
	// name check of the template is the bind every execution reuses.
	if _, err := s.bind(); err != nil {
		return nil, err
	}
	return s, nil
}

// bind returns the statement bound to the DB's current catalog, binding
// again when the catalog has moved on since the last execution.
func (s *Stmt) bind() (*boundStmt, error) {
	// The epoch is read before the tables are: a table replaced while this
	// binds leaves a stale epoch behind, and the next execution binds again.
	epoch := s.db.catalogEpoch.Load()
	if b := s.bound.Load(); b != nil && b.epoch == epoch {
		return b, nil
	}
	node, err := sql.BindTemplate(s.tmpl, catalogView{s.db})
	if err != nil {
		return nil, err
	}
	cm, err := s.mode.coreMode()
	if err != nil {
		return nil, err
	}
	b := &boundStmt{epoch: epoch, node: node, mode: s.db.overViews(cm, s.tmpl)}
	s.bound.Store(b)
	return b, nil
}

// Query executes the prepared statement with the given arguments, one per
// "?" parameter in statement order. It accepts the same context semantics as
// DB.Query; tune a single execution with QueryWith.
func (s *Stmt) Query(ctx context.Context, args ...any) (*Result, error) {
	return s.QueryWith(ctx, args)
}

// QueryWith is Query with per-execution options (WithWorkers,
// WithMemoryLimit, WithTimeout, ...). Note that executions of one statement
// at different worker counts or memory limits plan as distinct cache
// entries: the plan depends on those dimensions.
func (s *Stmt) QueryWith(ctx context.Context, args []any, opts ...QueryOption) (*Result, error) {
	lits, err := sql.Literals(s.tmpl.Params, args)
	if err != nil {
		return nil, err
	}
	cfg := resolveOptions(opts)
	cfg.prepared, cfg.args = s, lits
	// Traces and metrics record the template text ("?" slots), not the
	// substituted literals: one prepared statement is one query shape.
	return s.db.run(ctx, s.mode, s.text, cfg)
}

// NumParams reports how many positional parameters the statement has.
func (s *Stmt) NumParams() int { return s.tmpl.Params }

// SQL returns the statement text as prepared.
func (s *Stmt) SQL() string { return s.text }

// Mode returns the optimisation mode the statement was prepared under.
func (s *Stmt) Mode() Mode { return s.mode }

// Fingerprint returns the statement's normalized shape (literals and
// parameters stripped to slots) prefixed with its mode — the key the serving
// layer deduplicates server-side statements under, and the prefix of the
// plan-cache keys its executions hit.
func (s *Stmt) Fingerprint() string { return s.fingerprint }
