package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// postRaw sends body as it is to path and returns the status and the decoded
// error envelope (zero for a 2xx).
func postRaw(t *testing.T, base, path string, body io.Reader) (int, ErrorResponse) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	if resp.StatusCode >= 300 {
		if err := decodeErrorResponse(string(raw), &e); err != nil {
			t.Fatalf("HTTP %d with an undecodable envelope %q: %v", resp.StatusCode, raw, err)
		}
	}
	return resp.StatusCode, e
}

func TestRequestBodyIsBounded(t *testing.T) {
	_, c := testServer(t, Config{})
	if err := c.NewSession(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	// One byte over the limit, as a body that would decode if it were read.
	pad := strings.Repeat(" ", maxBody)
	for _, path := range []string{"/query", "/prepare", "/execute", "/session"} {
		status, e := postRaw(t, c.base, path, strings.NewReader(`{"sql":"SELECT ID FROM R"}`+pad))
		if status != http.StatusRequestEntityTooLarge || e.Kind != KindInvalid || !strings.Contains(e.Error, "larger than") {
			t.Errorf("%s: HTTP %d %+v, want 413 %s", path, status, e, KindInvalid)
		}
	}
	// The same body at the limit is read and answered.
	status, e := postRaw(t, c.base, "/query", strings.NewReader(`{"sql":"SELECT ID FROM R LIMIT 1"}`+pad[:maxBody-40]))
	if status != http.StatusOK {
		t.Fatalf("body at the limit: HTTP %d %+v", status, e)
	}
}

func TestRequestBodyIsDecodedStrictly(t *testing.T) {
	_, c := testServer(t, Config{})
	if err := c.NewSession(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	pr, err := c.Prepare(context.Background(), "", "SELECT ID FROM R WHERE A = ?")
	if err != nil {
		t.Fatal(err)
	}
	good := fmt.Sprintf(`{"session":%q,"stmt":%q,"args":[1]}`, c.Session(), pr.Stmt)
	if status, e := postRaw(t, c.base, "/execute", strings.NewReader(good)); status != http.StatusOK {
		t.Fatalf("well-formed request: HTTP %d %+v", status, e)
	}
	cases := []struct{ name, path, body, says string }{
		{"unknown field", "/execute", strings.Replace(good, "}", `,"stnt":"s1"}`, 1), `unknown field "stnt"`},
		{"name in another case", "/query", `{"SQL":"SELECT ID FROM R"}`, `unknown field "SQL"`},
		{"duplicate key", "/execute", strings.Replace(good, "}", `,"stmt":"s2"}`, 1), `duplicate field "stmt"`},
		{"duplicate key", "/query", `{"sql":"SELECT ID FROM R","sql":"SELECT A FROM R"}`, `duplicate field "sql"`},
		{"trailing data", "/execute", good + " x", "data after the object"},
		{"second object", "/prepare", fmt.Sprintf(`{"session":%q,"sql":"SELECT ID FROM R"}{}`, c.Session()), "data after the object"},
		{"not an object", "/session", `["acme"]`, "expected"},
		{"boolean argument", "/execute", strings.Replace(good, "[1]", "[true]", 1), "expected a number or a string"},
		{"empty body", "/query", ``, "expected"},
	}
	for _, tc := range cases {
		status, e := postRaw(t, c.base, tc.path, strings.NewReader(tc.body))
		if status != http.StatusBadRequest || e.Kind != KindInvalid || !strings.Contains(e.Error, tc.says) {
			t.Errorf("%s on %s: HTTP %d %+v, want 400 %s saying %q", tc.name, tc.path, status, e, KindInvalid, tc.says)
		}
	}
}

// A result larger than the response buffer leaves in several writes without
// a Content-Length and still decodes whole; a small one is one write with
// its length.
func TestLargeResultsStream(t *testing.T) {
	db := testEngine(t, 20000, 20000)
	srv, c := testServer(t, Config{DB: db})
	for _, tc := range []struct {
		sql      string
		rows     int
		buffered bool
	}{
		{"SELECT ID, A FROM R", 20000, false},
		{"SELECT ID, A FROM R WHERE A = 7", 200, true},
	} {
		body, err := appendQueryRequest(nil, &QueryRequest{SQL: tc.sql})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(string(body))))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d %s", tc.sql, w.Code, w.Body)
		}
		if got := w.Header().Get("Content-Length") != ""; got != tc.buffered {
			t.Errorf("%s: Content-Length %q on a %d-byte body", tc.sql, w.Header().Get("Content-Length"), w.Body.Len())
		}
		if tc.buffered == (w.Body.Len() > flushAt) {
			t.Fatalf("%s: body of %d bytes does not test the %d-byte mark", tc.sql, w.Body.Len(), flushAt)
		}
		var resp QueryResponse
		if err := decodeQueryResponse(w.Body.String(), &resp); err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if resp.RowCount != tc.rows || len(resp.Rows) != tc.rows {
			t.Fatalf("%s: %d rows (declared %d), want %d", tc.sql, len(resp.Rows), resp.RowCount, tc.rows)
		}
	}
	// Over a real connection the streamed body arrives the same.
	resp, err := c.Query(context.Background(), "", "SELECT ID, A FROM R")
	if err != nil || len(resp.Rows) != 20000 {
		t.Fatalf("over the socket: %d rows, err %v", len(resp.Rows), err)
	}
}

// jsonAllocs is how many objects encoding/json has allocated so far, from
// the heap profile.
func jsonAllocs() int64 {
	runtime.GC() // a profile shows allocations up to the last completed cycle
	runtime.GC()
	var n int64
	records := make([]runtime.MemProfileRecord, 1<<12)
	for {
		got, ok := runtime.MemProfile(records, true)
		if ok {
			records = records[:got]
			break
		}
		records = make([]runtime.MemProfileRecord, 2*got)
	}
	for i := range records {
		frames := runtime.CallersFrames(records[i].Stack())
		for {
			fr, more := frames.Next()
			if strings.HasPrefix(fr.Function, "encoding/json.") {
				n += records[i].AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return n
}

// TestExecuteAllocGuard: a successful /execute allocates nothing inside
// encoding/json (the codec is the only wire path) and stays far below what
// the reflective handler cost (198 allocations for this request).
func TestExecuteAllocGuard(t *testing.T) {
	srv, c := testServer(t, Config{DB: pointEngine(t)})
	ctx := context.Background()
	if err := c.NewSession(ctx, ""); err != nil {
		t.Fatal(err)
	}
	pr, err := c.Prepare(ctx, "", pointSQL)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"session":%q,"stmt":%q,"args":[7]}`, c.Session(), pr.Stmt)
	h := srv.Handler()
	w := &discardWriter{h: http.Header{}}
	req := httptest.NewRequest(http.MethodPost, "/execute", nil)
	execute := func() {
		req.Body = io.NopCloser(strings.NewReader(body))
		req.ContentLength = int64(len(body))
		h.ServeHTTP(w, req)
	}
	execute() // plan the template, fill the pools

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := jsonAllocs()
	perRun := testing.AllocsPerRun(200, execute)
	if n := jsonAllocs() - before; n != 0 {
		t.Errorf("encoding/json allocated %d objects over 200 /execute requests", n)
	}
	if _, err := json.Marshal(body); err != nil || jsonAllocs() == before {
		t.Fatalf("the probe does not see encoding/json allocate (err %v)", err)
	}
	t.Logf("%.0f allocations per /execute", perRun)
	if perRun > 140 {
		t.Errorf("%.0f allocations per /execute", perRun)
	}
}
