package graphload

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"wqe/internal/datagen"
	"wqe/internal/distindex"
	"wqe/internal/graph"
)

// coldSnaps caches, by requested size, a products graph's snapshot with
// its PLL embedded, so repeated benchmark rounds generate it once.
var coldSnaps sync.Map

func coldSnapshot(b *testing.B, nodes int) []byte {
	if data, ok := coldSnaps.Load(nodes); ok {
		return data.([]byte)
	}
	g, err := datagen.Generate(datagen.DatasetProducts, nodes, 7)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf, distindex.NewPLLParallel(g, 0).Marshal()); err != nil {
		b.Fatal(err)
	}
	coldSnaps.Store(nodes, buf.Bytes())
	return buf.Bytes()
}

// BenchmarkColdStart times what a cold start pays, from snapshot bytes
// in memory to a warmed graph, stage by stage, on products graphs of
// about 2k, 20k and 180k nodes: reading the snapshot (open-ms), restoring
// the embedded PLL (restore-ms) and the diameter sweep (diameter-ms).
// Each reported figure is the mean over b.N cold starts; run
// with -benchtime 9x.
func BenchmarkColdStart(b *testing.B) {
	for _, nodes := range []int{2000, 20000, 200000} {
		b.Run(fmt.Sprintf("products-%d", nodes), func(b *testing.B) {
			data := coldSnapshot(b, nodes)
			var open, restore, diam time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				snap, err := graph.ReadSnapshot(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if _, err := distindex.UnmarshalPLL(snap.G, snap.Aux); err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				snap.G.Diameter()
				t3 := time.Now()
				open, restore, diam = open+t1.Sub(t0), restore+t2.Sub(t1), diam+t3.Sub(t2)
			}
			ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(b.N) }
			b.ReportMetric(ms(open), "open-ms")
			b.ReportMetric(ms(restore), "restore-ms")
			b.ReportMetric(ms(diam), "diameter-ms")
		})
	}
}
