package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dqo"
)

// pointEngine is the repository benchmark's serve-point table in miniature:
// 400 rows, 40 distinct A, so "SELECT ID FROM R WHERE A = ?" returns 10 rows.
func pointEngine(t testing.TB) *dqo.DB {
	t.Helper()
	const n, keys = 400, 40
	id, a, b, v := make([]uint32, n), make([]uint32, n), make([]uint32, n), make([]int64, n)
	for i := range id {
		id[i] = uint32(i)
		a[i] = uint32(i*7) % keys
		b[i] = uint32(i*3) % keys
		v[i] = int64(i % 1000)
	}
	db := dqo.Open()
	tbl := dqo.NewTableBuilder("R").Uint32("ID", id).Uint32("A", a).Uint32("B", b).Int64("V", v).MustBuild()
	if err := db.Register(tbl); err != nil {
		t.Fatal(err)
	}
	db.EnablePlanCache(true)
	return db
}

const pointSQL = "SELECT ID FROM R WHERE A = ?"

// discardWriter is the cheapest legal http.ResponseWriter, so the handler
// sub-benchmark's allocations are the handler's own.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// BenchmarkExecute prices one prepared point query at three depths: the
// engine alone (inprocess), the /execute handler against a discarding writer
// (handler), and a kept-alive loopback connection through Client (socket).
// allocs/op and B/op are the guarded figures; run with -benchmem.
func BenchmarkExecute(b *testing.B) {
	ctx := context.Background()

	b.Run("inprocess", func(b *testing.B) {
		stmt, err := pointEngine(b).Prepare(dqo.ModeDQOCalibrated, pointSQL)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := stmt.Query(ctx, int64(i%40))
			if err != nil || res.NumRows() != 10 {
				b.Fatalf("rows = %d, err = %v", res.NumRows(), err)
			}
		}
	})

	b.Run("handler", func(b *testing.B) {
		srv, c := testServer(b, Config{DB: pointEngine(b)})
		if err := c.NewSession(ctx, ""); err != nil {
			b.Fatal(err)
		}
		pr, err := c.Prepare(ctx, "", pointSQL)
		if err != nil {
			b.Fatal(err)
		}
		bodies := make([]string, 40)
		for k := range bodies {
			bodies[k] = fmt.Sprintf(`{"session":%q,"stmt":%q,"args":[%d]}`, c.Session(), pr.Stmt, k)
		}
		h := srv.Handler()
		w := &discardWriter{h: http.Header{}}
		req := httptest.NewRequest(http.MethodPost, "/execute", nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body := bodies[i%40]
			req.Body = io.NopCloser(strings.NewReader(body))
			req.ContentLength = int64(len(body))
			h.ServeHTTP(w, req)
		}
	})

	b.Run("socket", func(b *testing.B) {
		_, c := testServer(b, Config{DB: pointEngine(b)})
		if err := c.NewSession(ctx, ""); err != nil {
			b.Fatal(err)
		}
		pr, err := c.Prepare(ctx, "", pointSQL)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := c.Execute(ctx, pr.Stmt, i%40)
			if err != nil || resp.RowCount != 10 {
				b.Fatalf("resp = %+v, err = %v", resp, err)
			}
		}
	})
}
