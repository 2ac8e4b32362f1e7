package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime/debug"
	"strconv"
	"testing"
	"time"
)

// nopResponseWriter is a sink ResponseWriter so the measurements below
// see only the encoding path, not a recorder's buffer growth.
type nopResponseWriter struct{ header http.Header }

func (w nopResponseWriter) Header() http.Header         { return w.header }
func (w nopResponseWriter) WriteHeader(int)             {}
func (w nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }

// sampleResponse is a realistic /ask body: the shape the hot path
// encodes thousands of times per second under load.
func sampleResponse() askResponse {
	return askResponse{
		Graph:     "fig1",
		Algo:      "answ",
		Rewrite:   "Q(u0) :- Cellphone(u0), Price(u0) >= 800, RAM(u0) >= 4, Carrier(u1), Sensor(u2)",
		Ops:       []string{"rlx(Price,840->800)", "rmE(u1->u0)"},
		Cost:      2.5,
		Closeness: 0.5,
		Satisfied: true,
		Matches:   []int64{3, 7, 12},
		Steps:     128,
		States:    64,
		ElapsedMS: 1.25,
	}
}

// naiveJSON is the pre-pool hot path kept as the regression baseline:
// a full Marshal allocating the output slice, plus the newline append.
func naiveJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(`{"error":"encode response"}`)
	}
	return append(b, '\n')
}

// respondNaive produces exactly respond's headers and body the way the
// old hot path did — Header().Set per header, Marshal per response —
// so the two closures below differ only in implementation, not output.
func respondNaive(rw http.ResponseWriter, v interface{}) {
	b := naiveJSON(v)
	rw.Header().Set("Content-Type", "application/json")
	rw.Header().Set("Content-Length", strconv.Itoa(len(b)))
	if _, err := rw.Write(b); err != nil {
		panic(err) // the sink writer cannot fail
	}
}

// TestRespondAllocsBelowNaive pins the satellite's alloc win: the
// pooled buffer+encoder path must allocate strictly less per response
// than the Marshal-per-response baseline it replaced, and the two must
// produce byte-identical bodies. Only the identity half runs under
// -race.
func TestRespondAllocsBelowNaive(t *testing.T) {
	s := &server{clock: time.Now}
	v := sampleResponse()

	var got bytes.Buffer
	captured := captureWriter{header: http.Header{}, buf: &got}
	s.respond(&captured, http.StatusOK, v)
	if want := naiveJSON(v); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("pooled body differs from baseline:\n%q\nvs\n%q", got.Bytes(), want)
	}

	if raceEnabled() {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so the pooled path re-allocates at random")
	}
	sink := nopResponseWriter{http.Header{}}
	// Warm the pool so the measurement sees steady state, not the first
	// Get's allocation.
	s.respond(sink, http.StatusOK, v)

	pooled := testing.AllocsPerRun(200, func() {
		s.respond(sink, http.StatusOK, v)
	})
	naive := testing.AllocsPerRun(200, func() {
		respondNaive(sink, v)
	})
	t.Logf("allocs/response: pooled=%.1f naive=%.1f", pooled, naive)
	if pooled >= naive {
		t.Errorf("pooled path allocates %.1f per response, baseline %.1f — the hot-path win regressed", pooled, naive)
	}
}

// raceEnabled reports whether the test binary was built with -race
// (as internal/graph's bfs_test.go does for its own pooled scratch).
func raceEnabled() bool {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// captureWriter records the body for the byte-identity check.
type captureWriter struct {
	header http.Header
	buf    *bytes.Buffer
}

func (w *captureWriter) Header() http.Header { return w.header }
func (w *captureWriter) WriteHeader(int)     {}
func (w *captureWriter) Write(b []byte) (int, error) {
	return w.buf.Write(b)
}

// BenchmarkRespond pins the response hot path's allocation profile
// (b.ReportAllocs) for the pooled encoder against the old
// Marshal-per-response baseline.
func BenchmarkRespond(b *testing.B) {
	s := &server{clock: time.Now}
	v := sampleResponse()
	sink := nopResponseWriter{http.Header{}}

	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.respond(sink, http.StatusOK, v)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			respondNaive(sink, v)
		}
	})
}
