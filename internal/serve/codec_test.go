package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"dqo"
)

// encoding/json is the oracle of this file and appears nowhere else in the
// package's wire path: the encoders must produce its bytes, the scanner must
// accept what it accepts (less what the scanner is deliberately strict
// about) and agree on every value.

var nastyStrings = []string{
	"", "plain", `quote " and \ backslash`, "tab\tnewline\nreturn\rbell\bfeed\f",
	"\x00\x01\x1f\x7f", "<script>alert('&')</script>", "line\u2028sep\u2029para",
	"h\u00e9llo w\u00f6rld \u4e16\u754c \U0001F600", "bad\xffutf8\xc0\xafbytes\xed\xa0\x80", "\xf0\x9f",
	strings.Repeat("long ", 200),
}

var nastyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e21, 1e20, 999999999999999900000, 1e-6, 1e-7, 9.99e-7,
	1.5e-9, 1e-10, 123456789.125, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	float64(math.MaxInt64), 3.0000001, 1e100, 2.5e-100,
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	check := func(s string) bool {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Equal(appendString(nil, s), want)
	}
	for _, s := range nastyStrings {
		if !check(s) {
			want, _ := json.Marshal(s)
			t.Errorf("%q:\n got %s\nwant %s", s, appendString(nil, s), want)
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(b []byte) bool { return check(string(b)) }, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	check64 := func(f float64) bool {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
		want, _ := json.Marshal(f)
		return bytes.Equal(appendFloat(nil, f, 64), want)
	}
	check32 := func(f float32) bool {
		if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
			return true
		}
		want, _ := json.Marshal(f)
		return bytes.Equal(appendFloat(nil, float64(f), 32), want)
	}
	for _, f := range nastyFloats {
		if !check64(f) {
			t.Errorf("float64 %v: got %s", f, appendFloat(nil, f, 64))
		}
		if !check32(float32(f)) {
			t.Errorf("float32 %v: got %s", float32(f), appendFloat(nil, float64(float32(f)), 32))
		}
	}
	for _, check := range []any{check64, check32, func(bits uint64) bool { return check64(math.Float64frombits(bits)) }} {
		if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
			t.Error(err)
		}
	}
}

// everyKindResult runs a query whose result holds a column of every kind,
// filled with the values an encoder gets wrong first.
func everyKindResult(t testing.TB, rows int) *dqo.Result {
	t.Helper()
	u32, u64, i64 := make([]uint32, rows), make([]uint64, rows), make([]int64, rows)
	f64, str := make([]float64, rows), make([]string, rows)
	edgeU64 := []uint64{0, 1, math.MaxUint32, math.MaxInt64, math.MaxUint64}
	edgeI64 := []int64{0, -1, math.MinInt64, math.MaxInt64, 1 << 53}
	for i := 0; i < rows; i++ {
		u32[i] = []uint32{0, 1, math.MaxUint32}[i%3]
		u64[i] = edgeU64[i%len(edgeU64)]
		i64[i] = edgeI64[i%len(edgeI64)]
		f64[i] = nastyFloats[i%len(nastyFloats)]
		str[i] = nastyStrings[i%len(nastyStrings)]
	}
	tbl, err := dqo.NewTableBuilder("T").Uint32("u32", u32).Uint64("u64", u64).Int64("i64", i64).
		Float64("f<64>", f64).String(`s"tr`, str).Build()
	if err != nil {
		t.Fatal(err)
	}
	db := dqo.Open()
	if err := db.Register(tbl); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), dqo.ModeDQO, "SELECT * FROM T")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// marshalResult is the response body as the previous server wrote it: the
// header through json.Marshal, every row json.Marshal of its boxed cells.
func marshalResult(t testing.TB, res *dqo.Result, rows int, elapsedMicros int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	head, err := json.Marshal(res.Columns())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, `{"columns":%s,"rows":[`, head)
	cells := make([]any, len(res.Columns()))
	dests := make([]any, len(cells))
	for i := range cells {
		dests[i] = &cells[i]
	}
	for n := 0; n < rows && res.Next(); n++ {
		if err := res.Scan(dests...); err != nil {
			t.Fatal(err)
		}
		row, err := json.Marshal(cells)
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			buf.WriteByte(',')
		}
		buf.Write(row)
	}
	fmt.Fprintf(&buf, `],"row_count":%d,"elapsed_ms":%g}`, res.NumRows(), float64(elapsedMicros)/1000)
	return buf.Bytes()
}

func TestResultEncodingMatchesEncodingJSON(t *testing.T) {
	for _, rows := range []int{0, 1, 231} {
		res := everyKindResult(t, rows)
		enc, err := newRowEncoder(res)
		if err != nil {
			t.Fatal(err)
		}
		for _, micros := range []int64{0, 1, 999, 1000, 1234, 999999999, 1000000000, 123456789012} {
			got := enc.appendHead(nil)
			for i := 0; i < rows; i++ {
				if i > 0 {
					got = append(got, ',')
				}
				got = enc.appendRow(got, i)
			}
			got = appendTail(got, res.NumRows(), micros)
			want := marshalResult(t, everyKindResult(t, rows), rows, micros)
			if !bytes.Equal(got, want) {
				t.Fatalf("%d rows, %d us:\n got %s\nwant %s", rows, micros, got, want)
			}
			// And the client reads back exactly what encoding/json would.
			var mine, ref QueryResponse
			if err := decodeQueryResponse(string(got), &mine); err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(want))
			dec.UseNumber()
			if err := dec.Decode(&ref); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(mine, ref) {
				t.Fatalf("decoded response differs:\n got %+v\nwant %+v", mine, ref)
			}
		}
	}
}

func TestNonFiniteFloatFailsBeforeTheFirstByte(t *testing.T) {
	tbl := dqo.NewTableBuilder("T").Float64("f", []float64{1, math.NaN(), math.Inf(1)}).MustBuild()
	db := dqo.Open()
	if err := db.Register(tbl); err != nil {
		t.Fatal(err)
	}
	_, c := testServer(t, Config{DB: db})
	_, err := c.Query(context.Background(), "", "SELECT * FROM T")
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != 500 || re.Kind != KindInternal || !strings.Contains(re.Msg, "NaN") {
		t.Fatalf("err = %v, want a typed 500 naming the value", err)
	}
}

func TestSmallBodiesMatchEncodingJSON(t *testing.T) {
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, s := range nastyStrings {
		e := ErrorResponse{Kind: KindInvalid, Error: s}
		if got := appendErrorResponse(nil, e.Kind, e.Error); !bytes.Equal(got, encode(e)) {
			t.Fatalf("error envelope:\n got %s\nwant %s", got, encode(e))
		}
		sr := SessionResponse{Session: s, TTLSeconds: 300}
		if got := appendSessionResponse(nil, &sr); !bytes.Equal(got, encode(sr)) {
			t.Fatalf("session response:\n got %s\nwant %s", got, encode(sr))
		}
		pr := PrepareResponse{Stmt: "s1", NumParams: 3, Fingerprint: s}
		if got := appendPrepareResponse(nil, &pr); !bytes.Equal(got, encode(pr)) {
			t.Fatalf("prepare response:\n got %s\nwant %s", got, encode(pr))
		}
	}
}

func TestRequestEncodingMatchesEncodingJSON(t *testing.T) {
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	args := []any{7, int32(-3), int64(math.MinInt64), uint32(math.MaxUint32), uint64(math.MaxUint64),
		float32(0.1), float32(1e-7), 2.5, 1e21, math.Copysign(0, -1), json.Number("12.50"), json.Number(""), "it's <x>"}
	for _, s := range nastyStrings {
		for _, a := range [][]any{nil, {}, args} {
			q := QueryRequest{SQL: s, Mode: "cal", Args: a, Session: s, TimeoutMillis: 1500}
			if got, err := appendQueryRequest(nil, &q); err != nil || !bytes.Equal(got, marshal(q)) {
				t.Fatalf("query request (%v):\n got %s\nwant %s", err, got, marshal(q))
			}
			x := ExecuteRequest{Session: "abc", Stmt: s, Args: a}
			if got, err := appendExecuteRequest(nil, &x); err != nil || !bytes.Equal(got, marshal(x)) {
				t.Fatalf("execute request (%v):\n got %s\nwant %s", err, got, marshal(x))
			}
		}
		p := PrepareRequest{Session: "abc", SQL: s}
		if got := appendPrepareRequest(nil, &p); !bytes.Equal(got, marshal(p)) {
			t.Fatalf("prepare request:\n got %s\nwant %s", got, marshal(p))
		}
		sr := SessionRequest{Tenant: s}
		if got := appendSessionRequest(nil, &sr); !bytes.Equal(got, marshal(sr)) {
			t.Fatalf("session request:\n got %s\nwant %s", got, marshal(sr))
		}
	}
	for _, bad := range []any{true, nil, []int{1}, math.NaN(), float32(math.Inf(1)), json.Number("1e"), struct{}{}} {
		if _, err := appendExecuteRequest(nil, &ExecuteRequest{Args: []any{bad}}); err == nil {
			t.Errorf("argument %#v encoded", bad)
		}
	}
}

// strictDecode is the scanner's specification: encoding/json with numbers
// kept as text, plus the rules the scanner adds on purpose — the body is
// exactly one object, member names are exact, known and unrepeated, null
// stands only for a member's whole value, and arguments and cells are
// numbers or strings.
func strictDecode(data []byte, v any, fields []string) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the object")
	}
	walk := json.NewDecoder(bytes.NewReader(data))
	walk.UseNumber()
	if tok, _ := walk.Token(); tok != json.Delim('{') {
		return errors.New("not an object")
	}
	seen := map[string]bool{}
	for walk.More() {
		key, _ := walk.Token()
		name, known := key.(string), false
		for _, f := range fields {
			known = known || f == name
		}
		if !known || seen[name] {
			return fmt.Errorf("unknown or repeated member %q", name)
		}
		seen[name] = true
		for depth := 0; ; {
			tok, err := walk.Token()
			if err != nil {
				return err
			}
			switch tok := tok.(type) {
			case json.Delim:
				switch tok {
				case '[':
					depth++
				case ']':
					depth--
				default:
					return errors.New("nested object")
				}
			case nil:
				if depth > 0 {
					return errors.New("null inside an array")
				}
			case bool:
				return errors.New("boolean")
			}
			if depth == 0 {
				break
			}
		}
	}
	scalars := func(vs []any) error {
		for _, v := range vs {
			switch v.(type) {
			case json.Number, string:
			default:
				return fmt.Errorf("%T where a number or string belongs", v)
			}
		}
		return nil
	}
	switch v := v.(type) {
	case *QueryRequest:
		return scalars(v.Args)
	case *ExecuteRequest:
		return scalars(v.Args)
	case *QueryResponse:
		for _, row := range v.Rows {
			if err := scalars(row); err != nil {
				return err
			}
		}
	}
	return nil
}

// boundedAlloc runs decode and fails if it allocated out of proportion to
// its input: a decoder must not be a way to make the server allocate.
func boundedAlloc(t *testing.T, n int, decode func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode()
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(128*n+64<<10); got > bound {
		t.Fatalf("decoding %d bytes allocated %d", n, got)
	}
	return err
}

// differ reports a disagreement between the scanner and its specification.
func differ(t *testing.T, what string, data []byte, mine, ref any, err, refErr error) {
	t.Helper()
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s %q: scanner err = %v, encoding/json err = %v", what, data, err, refErr)
	}
	if err == nil && !reflect.DeepEqual(mine, ref) {
		t.Fatalf("%s %q:\n scanner %+v\n   json %+v", what, data, mine, ref)
	}
}

var requestSeeds = []string{
	`{"sql":"SELECT 1","mode":"cal","args":[1,-2.5e3,"x"],"session":"ab","timeout_ms":250}`,
	`{"session":"0123456789abcdef0123456789abcdef","stmt":"s1","args":[7]}`,
	`{"session":"s","sql":"SELECT ID FROM R WHERE A = ?","mode":"dqo"}`,
	`{"tenant":"acme"}`, `{}`, ` { "tenant" : null } `, `{"args":[]}`, `{"args":null,"timeout_ms":null}`,
	`{"sql":"a","sql":"b"}`, `{"SQL":"a"}`, `{"sql":"a"} x`, `{"sql":"a"}{}`, `{"nope":1}`, `null`, `[]`, `"s"`, ``,
	`{"sql":"\u00e9\ud83d\ude00\ud83d \udc00 \"\\\/\b\f\n\r\t"}`, `{"s\u0071l":"escaped name"}`, "{\"sql\":\"raw\xff\"}",
	`{"sql":"bad \x escape"}`, `{"sql":"ctl` + "\x01" + `"}`, `{"sql":"unterminated`, `{"sql":"a",}`, `{,}`, `{"sql" "a"}`,
	`{"timeout_ms":1.0}`, `{"timeout_ms":1e3}`, `{"timeout_ms":-0}`, `{"timeout_ms":99999999999999999999}`, `{"timeout_ms":"5"}`,
	`{"args":[01]}`, `{"args":[1.]}`, `{"args":[-]}`, `{"args":[1e400,-0.0E-0]}`, `{"args":[true]}`, `{"args":[null]}`,
	`{"args":[[1]]}`, `{"args":[{"a":1}]}`, `{"args":[1,]}`, `{"args":[1 2]}`, `{"args":7}`, `{"sql":["a"]}`, `{"sql":5}`,
	"{\"sql\":\"a\"}\x00", "\xef\xbb\xbf{}",
}

func FuzzDecodeRequest(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body := string(data)
		var q, qRef QueryRequest
		err := boundedAlloc(t, len(data), func() error { return decodeQueryRequest(body, &q) })
		refErr := strictDecode(data, &qRef, queryRequestFields)
		differ(t, "query request", data, q, qRef, err, refErr)
		var x, xRef ExecuteRequest
		err = boundedAlloc(t, len(data), func() error { return decodeExecuteRequest(body, &x) })
		refErr = strictDecode(data, &xRef, executeRequestFields)
		differ(t, "execute request", data, x, xRef, err, refErr)
		var p, pRef PrepareRequest
		err = boundedAlloc(t, len(data), func() error { return decodePrepareRequest(body, &p) })
		refErr = strictDecode(data, &pRef, prepareRequestFields)
		differ(t, "prepare request", data, p, pRef, err, refErr)
		var s, sRef SessionRequest
		err = boundedAlloc(t, len(data), func() error { return decodeSessionRequest(body, &s) })
		refErr = strictDecode(data, &sRef, sessionRequestFields)
		differ(t, "session request", data, s, sRef, err, refErr)
	})
}

var responseSeeds = []string{
	`{"columns":["ID","s"],"rows":[[1,"a"],[2,"b\u00e9"]],"row_count":2,"elapsed_ms":0.125}`,
	`{"columns":[],"rows":[],"row_count":0,"elapsed_ms":1e-3}`, `{"columns":null,"rows":null}`,
	`{"rows":[[],[1],[]]}`, `{"rows":[null]}`, `{"rows":[[null]]}`, `{"rows":[[[1]]]}`, `{"rows":[1]}`, `{"rows":[[1,]]}`,
	`{"columns":[null]}`, `{"columns":[1]}`, `{"columns":["a" "b"]}`, `{"row_count":1.5}`, `{"row_count":-3}`,
	`{"elapsed_ms":1e999}`, `{"elapsed_ms":"1"}`, `{"elapsed_ms":-0}`, `{"rows":[[18446744073709551615,-1e-7,1E+21]]}`,
	`{"rows":[["a"]],"error":"truncated"}`, `{"columns":["a"],"columns":["b"]}`, `{"rows":[[1]]} `, `{"rows":[[1]]}]`,
	`{"kind":"invalid_request","error":"bad"}`, `{"session":"abc","ttl_seconds":300}`, `{"stmt":"s1","num_params":1,"fingerprint":"cal|SELECT ?"}`,
}

func FuzzDecodeResponse(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body := string(data)
		var q, qRef QueryResponse
		err := boundedAlloc(t, len(data), func() error { return decodeQueryResponse(body, &q) })
		refErr := strictDecode(data, &qRef, queryResponseFields)
		differ(t, "query response", data, q, qRef, err, refErr)
		var e, eRef ErrorResponse
		err = boundedAlloc(t, len(data), func() error { return decodeErrorResponse(body, &e) })
		refErr = strictDecode(data, &eRef, errorResponseFields)
		differ(t, "error response", data, e, eRef, err, refErr)
		var s, sRef SessionResponse
		err = boundedAlloc(t, len(data), func() error { return decodeSessionResponse(body, &s) })
		refErr = strictDecode(data, &sRef, sessionResponseFields)
		differ(t, "session response", data, s, sRef, err, refErr)
		var p, pRef PrepareResponse
		err = boundedAlloc(t, len(data), func() error { return decodePrepareResponse(body, &p) })
		refErr = strictDecode(data, &pRef, prepareResponseFields)
		differ(t, "prepare response", data, p, pRef, err, refErr)
	})
}
