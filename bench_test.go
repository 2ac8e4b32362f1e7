// Benchmarks regenerating the paper's evaluation: one testing.B
// benchmark per table/figure (DESIGN.md §3). Each iteration runs the
// figure's full experiment at go-test scale (bench.QuickOptions); run
// `go run ./cmd/wqe-experiments` for the paper-scale tables. With -v,
// the first iteration prints the regenerated table.
package wqe_test

import (
	"os"
	"testing"

	"wqe/internal/bench"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	run, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		h := bench.New(bench.QuickOptions())
		tbl := run(h)
		if i == 0 && testing.Verbose() {
			tbl.Fprint(os.Stdout)
		}
	}
}

// BenchmarkFig10aEfficiency regenerates Fig 10(a): mean runtime of
// FMAnsW / AnsWb / AnsWnc / AnsW / AnsHeu on all four dataset analogs.
func BenchmarkFig10aEfficiency(b *testing.B) { benchExperiment(b, "1a") }

// BenchmarkFig10bScalability regenerates Fig 10(b): runtime vs |G|.
func BenchmarkFig10bScalability(b *testing.B) { benchExperiment(b, "1b") }

// BenchmarkFig10cQuerySize regenerates Fig 10(c): runtime vs |E_Q|.
func BenchmarkFig10cQuerySize(b *testing.B) { benchExperiment(b, "1c") }

// BenchmarkFig10dBudgetDBpedia regenerates Fig 10(d): runtime vs budget
// on the DBpedia analog.
func BenchmarkFig10dBudgetDBpedia(b *testing.B) { benchExperiment(b, "1d") }

// BenchmarkFig10eBudgetIMDB regenerates Fig 10(e): runtime vs budget on
// the IMDB analog.
func BenchmarkFig10eBudgetIMDB(b *testing.B) { benchExperiment(b, "1e") }

// BenchmarkFig10fExemplarsDBpedia regenerates Fig 10(f): runtime vs
// |T| on the DBpedia analog.
func BenchmarkFig10fExemplarsDBpedia(b *testing.B) { benchExperiment(b, "1f") }

// BenchmarkFig10gExemplarsIMDB regenerates Fig 10(g): runtime vs |T| on
// the IMDB analog.
func BenchmarkFig10gExemplarsIMDB(b *testing.B) { benchExperiment(b, "1g") }

// BenchmarkFig10hTopology regenerates Fig 10(h): runtime vs query
// topology (star / tree / cyclic).
func BenchmarkFig10hTopology(b *testing.B) { benchExperiment(b, "1h") }

// BenchmarkFig10iCloseness regenerates Fig 10(i): relative closeness by
// algorithm, including AnsHeu beam widths.
func BenchmarkFig10iCloseness(b *testing.B) { benchExperiment(b, "2i") }

// BenchmarkFig10jClosenessQuerySize regenerates Fig 10(j): relative
// closeness vs |E_Q|.
func BenchmarkFig10jClosenessQuerySize(b *testing.B) { benchExperiment(b, "2j") }

// BenchmarkFig10kClosenessBudget regenerates Fig 10(k): relative
// closeness vs budget.
func BenchmarkFig10kClosenessBudget(b *testing.B) { benchExperiment(b, "2k") }

// BenchmarkFig10lAnytime regenerates Fig 10(l): anytime δ_t, AnsW vs
// the uninformed AnsHeuB.
func BenchmarkFig10lAnytime(b *testing.B) { benchExperiment(b, "3") }

// BenchmarkFig12aWhyMany regenerates Fig 12(a): Why-Many efficiency.
func BenchmarkFig12aWhyMany(b *testing.B) { benchExperiment(b, "4a") }

// BenchmarkFig12bWhyManyEffect regenerates Fig 12(b): Why-Many
// effectiveness (|IM| reduction).
func BenchmarkFig12bWhyManyEffect(b *testing.B) { benchExperiment(b, "4b") }

// BenchmarkFig12cWhyEmpty regenerates Fig 12(c): Why-Empty efficiency.
func BenchmarkFig12cWhyEmpty(b *testing.B) { benchExperiment(b, "4c") }

// BenchmarkExp5UserStudy regenerates the simulated user study:
// nDCG@3 and precision against the ground-truth relevance oracle.
func BenchmarkExp5UserStudy(b *testing.B) { benchExperiment(b, "5") }

// BenchmarkAblationCacheCapacity sweeps the star-view cache size
// (DESIGN.md §5 ablation).
func BenchmarkAblationCacheCapacity(b *testing.B) { benchExperiment(b, "a1") }

// BenchmarkAblationAnalysisCap sweeps the picky-generation analysis cap
// (DESIGN.md §5 ablation).
func BenchmarkAblationAnalysisCap(b *testing.B) { benchExperiment(b, "a3") }
