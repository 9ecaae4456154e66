// Package dqo is an in-memory columnar query engine whose optimiser
// implements Deep Query Optimisation (DQO) as proposed by Dittrich and Nix,
// "The Case for Deep Query Optimisation", CIDR 2020.
//
// Instead of translating logical operators into opaque physical operators in
// one step (shallow query optimisation, SQO), the DQO optimiser unnests
// operators into sub-components — index structure families, hash
// functions, sort algorithms, loop disciplines — and
// enumerates plans over that finer space while tracking a richer set of
// data properties (sortedness, clustering, key density, order
// correlations). Precomputed components can be materialised as Algorithmic
// Views and are selected for a workload by the AVSP solvers.
//
// # Quick start
//
//	db := dqo.Open()
//	_ = db.Register(dqo.NewTableBuilder("R").
//		Uint32("ID", ids).Uint32("A", groups).MustBuild())
//	_ = db.Register(dqo.NewTableBuilder("S").
//		Uint32("R_ID", fks).Int64("M", vals).MustBuild())
//
//	res, err := db.Query(ctx, dqo.ModeDQO,
//		"SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A")
//
// Query accepts functional options (WithWorkers, WithMorselSize,
// WithMemoryLimit, WithTimeout, WithTracer) to tune one run. Use db.Explain
// to see the chosen plan, its estimated cost, and its property vector at
// every operator; Explain's verbosity options add the granule trees
// (ExplainGranules), the unnesting chains (ExplainUnnesting), or an
// executed estimated-vs-measured operator table (ExplainAnalyze). Every
// query's lifecycle is observable: phase/operator span trees flow to the
// DB's Tracer (Result.Trace, DB.LastTrace) and cumulative counters to
// DB.Metrics / DB.WriteMetrics.
//
// # Prepared statements
//
// Query shapes that repeat with different literals are prepared once and
// executed many times. Prepare parses and name-checks a statement whose
// literals are written as positional "?" parameters; each Stmt.Query binds
// one argument set and executes. Executions ride the plan-template cache
// even when the DB-level cache is off: the first execution plans, every
// later one rebinds the cached template with zero enumeration.
//
//	stmt, err := db.Prepare(dqo.ModeDQOCalibrated,
//		"SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID WHERE R.A < ? GROUP BY R.A")
//	res, err := stmt.Query(ctx, 100)
//
// # Consuming results
//
// A Result holds the full materialised answer. Columns names the output
// columns; Next advances a cursor over the rows; Scan copies the current
// row into typed destinations (*uint32, *uint64, *int64, *float64,
// *string, or *any), one per column:
//
//	for res.Next() {
//		var a, n uint32
//		if err := res.Scan(&a, &n); err != nil { ... }
//	}
//
// Whole columns are available in one call via Uint32Column and friends, or
// by position and of any type via ColumnAt; the execution profile via
// Result.Stats, and String renders an aligned table. The network serving
// layer (cmd/dqoserve, internal/serve) encodes its JSON responses from the
// typed columns ColumnAt returns.
package dqo
