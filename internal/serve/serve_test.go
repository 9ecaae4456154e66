package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dqo"
	"dqo/internal/datagen"
)

// testEngine builds a DB with the paper's R/S pair, sized for fast tests,
// with the plan cache on (the server's production configuration).
func testEngine(t testing.TB, rRows, sRows int) *dqo.DB {
	t.Helper()
	cfg := datagen.FKConfig{RRows: rRows, SRows: sRows, AGroups: 100, Dense: true}
	r, s := datagen.FKPair(42, cfg)
	rt := dqo.NewTableBuilder("R").
		Uint32("ID", r.MustColumn("ID").Uint32s()).
		Uint32("A", r.MustColumn("A").Uint32s()).
		MustBuild()
	st := dqo.NewTableBuilder("S").
		Uint32("R_ID", s.MustColumn("R_ID").Uint32s()).
		Int64("M", s.MustColumn("M").Int64s()).
		MustBuild()
	db := dqo.Open()
	if err := db.Register(rt); err != nil {
		t.Fatal(err)
	}
	if err := db.Register(st); err != nil {
		t.Fatal(err)
	}
	db.EnablePlanCache(true)
	return db
}

// testServer wires a Server over a test engine behind an httptest listener.
func testServer(t testing.TB, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = testEngine(t, 2000, 9000)
	}
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, NewClient(hs.URL, hs.Client())
}

const joinSQL = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A ORDER BY R.A"

func TestQueryEndToEnd(t *testing.T) {
	_, c := testServer(t, Config{})
	resp, err := c.Query(context.Background(), "dqo", joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Columns) != 2 {
		t.Fatalf("columns = %v", resp.Columns)
	}
	if resp.RowCount != 100 || len(resp.Rows) != 100 {
		t.Fatalf("rows = %d (declared %d), want 100", len(resp.Rows), resp.RowCount)
	}
	if resp.ElapsedMillis <= 0 {
		t.Fatalf("elapsed_ms = %g", resp.ElapsedMillis)
	}
}

func TestQueryWithArgsRidesPlanCache(t *testing.T) {
	db := testEngine(t, 2000, 9000)
	_, c := testServer(t, Config{DB: db})
	const q = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID WHERE R.A < ? GROUP BY R.A"
	for i, arg := range []any{10, 20, 30} {
		resp, err := c.Query(context.Background(), "cal", q, arg)
		if err != nil {
			t.Fatalf("arg %v: %v", arg, err)
		}
		if want := arg.(int); resp.RowCount != want {
			t.Fatalf("arg %v: %d groups, want %d", arg, resp.RowCount, want)
		}
		if i == 0 {
			continue
		}
	}
	hits, misses := db.PlanCacheStats()
	if misses != 1 || hits != 2 {
		t.Fatalf("plan cache = %d hits / %d misses, want 2/1: repeats of one shape must hit", hits, misses)
	}
}

func TestQueryErrorsAreTyped(t *testing.T) {
	_, c := testServer(t, Config{})
	cases := []struct {
		sql    string
		status int
		kind   string
	}{
		{"SELECT nope FROM R", 400, KindInvalid},
		{"garbage", 400, KindInvalid},
	}
	for _, tc := range cases {
		_, err := c.Query(context.Background(), "", tc.sql)
		var re *RemoteError
		if !errors.As(err, &re) || re.Status != tc.status || re.Kind != tc.kind {
			t.Fatalf("%q: err = %v, want HTTP %d kind %s", tc.sql, err, tc.status, tc.kind)
		}
	}
	if _, err := c.Query(context.Background(), "warp", "SELECT ID FROM R"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestKeyOfWrongKindIsInvalid: a grouping, join or sort key that is neither
// a uint32 column nor a dictionary string is the client's error, refused at
// bind — here on the next execution of a statement prepared before the
// table's key column was re-registered as int64.
func TestKeyOfWrongKindIsInvalid(t *testing.T) {
	db := testEngine(t, 2000, 9000)
	_, c := testServer(t, Config{DB: db})
	ctx := context.Background()
	if err := c.NewSession(ctx, ""); err != nil {
		t.Fatal(err)
	}
	p, err := c.Prepare(ctx, "", "SELECT R_ID, COUNT(*) FROM S WHERE R_ID < ? GROUP BY R_ID")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(ctx, p.Stmt, 5); err != nil {
		t.Fatal(err)
	}
	wide := dqo.NewTableBuilder("S").Int64("R_ID", []int64{1, 2, 3}).Int64("M", []int64{4, 5, 6}).MustBuild()
	if err := db.Register(wide); err != nil {
		t.Fatal(err)
	}
	_, err = c.Execute(ctx, p.Stmt, 5)
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != 400 || re.Kind != KindInvalid || !strings.Contains(re.Error(), "sql: GROUP BY key S.R_ID has kind int64") {
		t.Fatalf("err = %v, want HTTP 400 %s from the binder", err, KindInvalid)
	}
}

func TestSessionLifecycleAndExpiry(t *testing.T) {
	srv, c := testServer(t, Config{SessionTTL: time.Minute})

	// Install a controllable clock under the session table.
	now := time.Now()
	var mu sync.Mutex
	srv.sessions.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	if err := c.NewSession(context.Background(), "team-a"); err != nil {
		t.Fatal(err)
	}
	if c.Session() == "" {
		t.Fatal("no session handle")
	}
	if _, err := c.Prepare(context.Background(), "", "SELECT ID FROM R WHERE A = ?"); err != nil {
		t.Fatal(err)
	}

	// Touching the session inside the TTL renews the lease...
	advance(50 * time.Second)
	if _, err := c.Execute(context.Background(), "s1", 5); err != nil {
		t.Fatalf("execute within TTL: %v", err)
	}
	advance(50 * time.Second)
	if _, err := c.Execute(context.Background(), "s1", 5); err != nil {
		t.Fatalf("renewed lease expired early: %v", err)
	}

	// ...and an idle session past the TTL is gone, statements included.
	advance(2 * time.Minute)
	_, err := c.Execute(context.Background(), "s1", 5)
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != 404 || re.Kind != KindNotFound {
		t.Fatalf("expired session: err = %v, want 404 %s", err, KindNotFound)
	}
	if sessions, _ := srv.sessions.counts(); sessions != 0 {
		t.Fatalf("%d sessions alive after expiry", sessions)
	}
}

func TestSessionTableBounded(t *testing.T) {
	_, c := testServer(t, Config{MaxSessions: 3})
	for i := 0; i < 3; i++ {
		if err := c.NewSession(context.Background(), ""); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	err := c.NewSession(context.Background(), "")
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != 429 || re.Kind != KindQueueFull {
		t.Fatalf("4th session: err = %v, want 429 %s", err, KindQueueFull)
	}
}

func TestSessionClose(t *testing.T) {
	_, c := testServer(t, Config{})
	if err := c.NewSession(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseSession(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Closing again (no session pinned) is a no-op; deleting an unknown id
	// 404s.
	if err := c.CloseSession(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPrepareExecuteOneSession(t *testing.T) {
	db := testEngine(t, 2000, 9000)
	_, c := testServer(t, Config{DB: db, MaxActive: 16, MaxQueue: 1024})
	if err := c.NewSession(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID WHERE R.A < ? GROUP BY R.A"
	// Plan the template once up front: the cache does not single-flight, so
	// concurrent first executions would each miss and the counts below would
	// depend on how many cores overlap them.
	warm, err := c.Prepare(context.Background(), "cal", q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(context.Background(), warm.Stmt, 5); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	handles := make([]string, workers)
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < 5; i++ {
				// Every worker re-prepares the same statement: the session
				// must dedup by fingerprint rather than fill up.
				pr, err := c.Prepare(context.Background(), "cal", q)
				if err != nil {
					errc <- fmt.Errorf("worker %d prepare: %w", w, err)
					return
				}
				handles[w] = pr.Stmt
				arg := 5 + (w+i)%20
				resp, err := c.Execute(context.Background(), pr.Stmt, arg)
				if err != nil {
					errc <- fmt.Errorf("worker %d execute(%d): %w", w, arg, err)
					return
				}
				if resp.RowCount != arg {
					errc <- fmt.Errorf("worker %d: execute(%d) returned %d groups", w, arg, resp.RowCount)
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range handles[1:] {
		if h != handles[0] {
			t.Fatalf("same statement got distinct handles %v", handles)
		}
	}
	if hits, misses := db.PlanCacheStats(); misses != 1 || hits != workers*5 {
		t.Fatalf("plan cache = %d hits / %d misses, want %d/1", hits, misses, workers*5)
	}
}

func TestShedUnderLoad(t *testing.T) {
	srv, c := testServer(t, Config{MaxActive: 1, MaxQueue: -1})
	// Occupy the single slot directly, then any query must shed with a
	// typed 429 rather than queue or block.
	release, err := srv.gate.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Query(context.Background(), "", "SELECT ID FROM R LIMIT 1")
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != 429 || re.Kind != KindQueueFull {
		release()
		t.Fatalf("err = %v, want 429 %s", err, KindQueueFull)
	}
	release()
	if _, err := c.Query(context.Background(), "", "SELECT ID FROM R LIMIT 1"); err != nil {
		t.Fatalf("query after release: %v", err)
	}
	metrics, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "dqoserve_shed_total 1") {
		t.Fatalf("shed not counted:\n%s", metrics)
	}
}

func TestTenantGateIsolation(t *testing.T) {
	srv, c := testServer(t, Config{MaxActive: 8, MaxQueue: 8, TenantActive: 1, TenantQueue: -1})
	if err := c.NewSession(context.Background(), "greedy-tenant"); err != nil {
		t.Fatal(err)
	}
	// Saturate greedy-tenant's single slot.
	release, err := srv.tenants.Enter(context.Background(), "greedy-tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	// Its own next query sheds...
	_, err = c.Query(context.Background(), "", "SELECT ID FROM R LIMIT 1")
	var re *RemoteError
	if !errors.As(err, &re) || re.Kind != KindQueueFull {
		t.Fatalf("saturated tenant: err = %v, want %s", err, KindQueueFull)
	}
	// ...while another tenant sails through.
	other := NewClient(c.base, c.hc)
	if err := other.NewSession(context.Background(), "polite-tenant"); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Query(context.Background(), "", "SELECT ID FROM R LIMIT 1"); err != nil {
		t.Fatalf("unrelated tenant starved: %v", err)
	}
}

func TestGracefulDrain(t *testing.T) {
	srv, c := testServer(t, Config{})
	// Hold an admission slot to simulate an in-flight query, then drain.
	release, err := srv.gate.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	if c.Healthy(context.Background()) {
		t.Fatal("healthz still 200 while draining")
	}
	_, err = c.Query(context.Background(), "", "SELECT ID FROM R LIMIT 1")
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != 503 || re.Kind != KindDraining {
		t.Fatalf("query while draining: err = %v, want 503 %s", err, KindDraining)
	}
	// The in-flight query's slot is still valid: releasing it models the
	// query finishing cleanly during the drain window.
	release()
	if got := srv.gate.Running(); got != 0 {
		t.Fatalf("%d queries still running after drain", got)
	}
}

func TestDrainCompletesInFlightQueries(t *testing.T) {
	srv, c := testServer(t, Config{DB: testEngine(t, 20000, 90000)})
	// Start a real query, flip to draining while it runs, and check it
	// completes successfully: draining refuses new work, never kills old.
	type result struct {
		resp *QueryResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := c.Query(context.Background(), "dqo", joinSQL)
		done <- result{resp, err}
	}()
	// Wait for the query to take its slot (it may also finish first —
	// that's fine, the channel read below settles it).
	for i := 0; i < 1000 && srv.gate.Running() == 0; i++ {
		select {
		case r := <-done:
			done <- r
			i = 1000
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	srv.Drain()
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight query killed by drain: %v", r.err)
	}
	if r.resp.RowCount != 100 {
		t.Fatalf("in-flight query truncated: %d rows", r.resp.RowCount)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, c := testServer(t, Config{})
	if err := c.NewSession(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prepare(context.Background(), "", "SELECT ID FROM R WHERE A = ?"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(context.Background(), "", "SELECT ID FROM R LIMIT 3"); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dqo_queries_total",         // engine exposition present
		"dqo_plan_cache_hits_total", // hit rate surfaced
		`dqoserve_requests_total{endpoint="/query",status="200"} 1`,
		`dqoserve_requests_total{endpoint="/prepare",status="200"} 1`,
		"dqoserve_sessions 1",
		"dqoserve_prepared_statements 1",
		"dqoserve_shed_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestUnknownStatementAndSession(t *testing.T) {
	_, c := testServer(t, Config{})
	if err := c.NewSession(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	_, err := c.Execute(context.Background(), "s99", 1)
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != 404 || re.Kind != KindNotFound {
		t.Fatalf("unknown stmt: err = %v, want 404 %s", err, KindNotFound)
	}
	bad := NewClient(c.base, c.hc)
	bad.session = "deadbeef"
	if _, err := bad.Prepare(context.Background(), "", "SELECT ID FROM R"); err == nil {
		t.Fatal("prepare on bogus session accepted")
	}
}

func TestConvertArgs(t *testing.T) {
	got, err := ConvertArgs([]any{jsonNum("7"), jsonNum("2.5"), "x"})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != int64(7) || got[1] != 2.5 || got[2] != "x" {
		t.Fatalf("got %#v", got)
	}
	if _, err := ConvertArgs([]any{true}); err == nil {
		t.Fatal("bool accepted")
	}
}

func TestParseMode(t *testing.T) {
	for wire, want := range map[string]dqo.Mode{
		"": dqo.ModeGreedy, "sqo": dqo.ModeSQO, "dqo": dqo.ModeDQO,
		"cal": dqo.ModeDQOCalibrated, "dqo-calibrated": dqo.ModeDQOCalibrated,
		"greedy": dqo.ModeGreedy,
	} {
		got, err := ParseMode(wire, dqo.ModeGreedy)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", wire, got, err, want)
		}
	}
	if _, err := ParseMode("warp", dqo.ModeDQO); err == nil {
		t.Fatal("bad mode accepted")
	}
}

// BenchmarkServeQuery measures the full HTTP round trip of a prepared
// repeat query — the serving layer's per-request overhead over the engine.
func BenchmarkServeQuery(b *testing.B) {
	db := testEngine(b, 2000, 9000)
	_, c := testServer(b, Config{DB: db, MaxQueue: 1 << 20})
	if err := c.NewSession(context.Background(), ""); err != nil {
		b.Fatal(err)
	}
	pr, err := c.Prepare(context.Background(), "cal", "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID WHERE R.A < ? GROUP BY R.A")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Execute(context.Background(), pr.Stmt, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// jsonNum builds a json.Number literal the way the request decoder would.
func jsonNum(s string) any { return json.Number(s) }
