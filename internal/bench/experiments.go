package bench

import (
	"fmt"
	"math"
	"sort"
	"time"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/graph"
	"wqe/internal/query"
)

// defaultBudget is the paper's default experimental cost bound B.
const defaultBudget = 3

// Experiments maps experiment ids to their drivers, in the paper's
// order.
var Experiments = []struct {
	ID  string
	Run func(*Harness) *Table
}{
	{"1a", (*Harness).Fig10a},
	{"1b", (*Harness).Fig10b},
	{"1c", (*Harness).Fig10c},
	{"1d", (*Harness).Fig10d},
	{"1e", (*Harness).Fig10e},
	{"1f", (*Harness).Fig10f},
	{"1g", (*Harness).Fig10g},
	{"1h", (*Harness).Fig10h},
	{"2i", (*Harness).Fig10i},
	{"2j", (*Harness).Fig10j},
	{"2k", (*Harness).Fig10k},
	{"3", (*Harness).Fig10l},
	{"4a", (*Harness).Fig12a},
	{"4b", (*Harness).Fig12b},
	{"4c", (*Harness).Fig12c},
	{"5", (*Harness).Exp5},
}

// Lookup finds an experiment driver by id.
func Lookup(id string) (func(*Harness) *Table, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

// timeRow measures mean wall time per algorithm on one workload.
func (h *Harness) timeRow(spec InstanceSpec, budget float64, algos []Algo) []string {
	g := h.GraphFor(spec.withDefaults(h).Dataset, spec.withDefaults(h).Scale)
	instances := h.Instances(spec)
	row := make([]string, 0, len(algos))
	for _, a := range algos {
		var times []time.Duration
		for _, inst := range instances {
			r, err := h.Run(a, g, inst, budget)
			if err != nil {
				continue
			}
			times = append(times, r.Elapsed)
		}
		row = append(row, secs(mean(times)))
	}
	return row
}

// closenessRow measures mean relative closeness (Jaccard vs ground
// truth) per algorithm on one workload.
func (h *Harness) closenessRow(spec InstanceSpec, budget float64, algos []Algo) []string {
	g := h.GraphFor(spec.withDefaults(h).Dataset, spec.withDefaults(h).Scale)
	instances := h.Instances(spec)
	row := make([]string, 0, len(algos))
	for _, a := range algos {
		var deltas []float64
		for _, inst := range instances {
			r, err := h.Run(a, g, inst, budget)
			if err != nil {
				continue
			}
			deltas = append(deltas, Jaccard(r.Answer.Matches, inst.AnswerStar))
		}
		row = append(row, f3(meanF(deltas)))
	}
	return row
}

// Fig10a — efficiency of the algorithm suite across the four datasets.
func (h *Harness) Fig10a() *Table {
	algos := []Algo{AlgoFMAnsW, AlgoAnsWb, AlgoAnsWnc, AlgoAnsW, AlgoAnsHeu}
	t := &Table{
		ID:     "Fig 10(a)",
		Title:  "Efficiency (mean seconds per Why-question)",
		Header: append([]string{"dataset"}, algoHeaders(algos)...),
	}
	for _, ds := range datagen.AllDatasets() {
		row := append([]string{ds}, h.timeRow(InstanceSpec{Dataset: ds}, defaultBudget, algos)...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig10b — scalability: runtime vs graph size on the DBpedia analog.
func (h *Harness) Fig10b() *Table {
	algos := []Algo{AlgoAnsWb, AlgoAnsW, AlgoAnsHeu}
	t := &Table{
		ID:     "Fig 10(b)",
		Title:  "Scalability on " + datagen.DatasetKnowledge + " (mean seconds vs |G|)",
		Header: append([]string{"nodes"}, algoHeaders(algos)...),
	}
	base := h.Opts.Scale
	for _, frac := range []int{40, 55, 70, 85, 100} {
		scale := base * frac / 100
		spec := InstanceSpec{Dataset: datagen.DatasetKnowledge, Scale: scale}
		row := append([]string{fmt.Sprint(scale)}, h.timeRow(spec, defaultBudget, algos)...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig10c — runtime vs query size |E_Q|.
func (h *Harness) Fig10c() *Table {
	algos := []Algo{AlgoAnsWb, AlgoAnsWnc, AlgoAnsW, AlgoAnsHeu}
	t := &Table{
		ID:     "Fig 10(c)",
		Title:  "Efficiency vs |E_Q| on " + datagen.DatasetKnowledge,
		Header: append([]string{"|E_Q|"}, algoHeaders(algos)...),
	}
	for edges := 1; edges <= 6; edges++ {
		spec := InstanceSpec{Dataset: datagen.DatasetKnowledge, Edges: edges}
		row := append([]string{fmt.Sprint(edges)}, h.timeRow(spec, defaultBudget, algos)...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

func (h *Harness) budgetTable(id, dataset string) *Table {
	algos := []Algo{AlgoAnsWb, AlgoAnsWnc, AlgoAnsW, AlgoAnsHeu}
	t := &Table{
		ID:     id,
		Title:  "Efficiency vs budget B on " + dataset,
		Header: append([]string{"B"}, algoHeaders(algos)...),
	}
	for b := 1; b <= 5; b++ {
		spec := InstanceSpec{Dataset: dataset}
		row := append([]string{fmt.Sprint(b)}, h.timeRow(spec, float64(b), algos)...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig10d — runtime vs budget on the DBpedia analog.
func (h *Harness) Fig10d() *Table { return h.budgetTable("Fig 10(d)", datagen.DatasetKnowledge) }

// Fig10e — runtime vs budget on the IMDB analog.
func (h *Harness) Fig10e() *Table { return h.budgetTable("Fig 10(e)", datagen.DatasetMovies) }

func (h *Harness) exemplarTable(id, dataset string) *Table {
	algos := []Algo{AlgoAnsWb, AlgoAnsWnc, AlgoAnsW, AlgoAnsHeu}
	t := &Table{
		ID:     id,
		Title:  "Efficiency vs |T| on " + dataset,
		Header: append([]string{"|T|"}, algoHeaders(algos)...),
	}
	for _, tuples := range []int{5, 10, 15, 20, 25} {
		spec := InstanceSpec{Dataset: dataset, Tuples: tuples}
		row := append([]string{fmt.Sprint(tuples)}, h.timeRow(spec, defaultBudget, algos)...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig10f — runtime vs exemplar size on the DBpedia analog.
func (h *Harness) Fig10f() *Table { return h.exemplarTable("Fig 10(f)", datagen.DatasetKnowledge) }

// Fig10g — runtime vs exemplar size on the IMDB analog.
func (h *Harness) Fig10g() *Table { return h.exemplarTable("Fig 10(g)", datagen.DatasetMovies) }

// Fig10h — runtime vs query topology.
func (h *Harness) Fig10h() *Table {
	algos := []Algo{AlgoAnsWb, AlgoAnsW, AlgoAnsHeu}
	t := &Table{
		ID:     "Fig 10(h)",
		Title:  "Efficiency vs topology on " + datagen.DatasetProducts,
		Header: append([]string{"topology"}, algoHeaders(algos)...),
	}
	for _, shape := range []query.Topology{query.TopoStar, query.TopoTree, query.TopoCyclic} {
		edges := 3
		spec := InstanceSpec{Dataset: datagen.DatasetProducts, Shape: shape, Edges: edges}
		row := append([]string{shape.String()}, h.timeRow(spec, defaultBudget, algos)...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig10i — relative closeness by algorithm (including AnsHeu beam
// sizes) per dataset.
func (h *Harness) Fig10i() *Table {
	algos := []Algo{AlgoFMAnsW, AlgoAnsHeuB, {Name: "AnsHeu", Beam: 1}, AlgoAnsHeu,
		{Name: "AnsHeu", Beam: 5}, AlgoAnsW}
	t := &Table{
		ID:     "Fig 10(i)",
		Title:  "Relative closeness δ (Jaccard vs ground truth)",
		Header: append([]string{"dataset"}, algoHeaders(algos)...),
	}
	for _, ds := range datagen.AllDatasets() {
		row := append([]string{ds}, h.closenessRow(InstanceSpec{Dataset: ds}, defaultBudget, algos)...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig10j — relative closeness vs query size.
func (h *Harness) Fig10j() *Table {
	algos := []Algo{{Name: "AnsHeu", Beam: 1}, AlgoAnsHeu, {Name: "AnsHeu", Beam: 5}, AlgoAnsW}
	t := &Table{
		ID:     "Fig 10(j)",
		Title:  "Relative closeness vs |E_Q| on " + datagen.DatasetKnowledge,
		Header: append([]string{"|E_Q|"}, algoHeaders(algos)...),
	}
	for edges := 1; edges <= 6; edges++ {
		spec := InstanceSpec{Dataset: datagen.DatasetKnowledge, Edges: edges}
		row := append([]string{fmt.Sprint(edges)}, h.closenessRow(spec, defaultBudget, algos)...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig10k — relative closeness vs budget.
func (h *Harness) Fig10k() *Table {
	algos := []Algo{AlgoAnsHeu, AlgoAnsW}
	t := &Table{
		ID:     "Fig 10(k)",
		Title:  "Relative closeness vs budget B on " + datagen.DatasetKnowledge,
		Header: append([]string{"B"}, algoHeaders(algos)...),
	}
	// Disturb harder (5 ops) so larger budgets have headroom to help.
	for b := 1; b <= 5; b++ {
		spec := InstanceSpec{Dataset: datagen.DatasetKnowledge, DisturbOps: 5}
		row := append([]string{fmt.Sprint(b)}, h.closenessRow(spec, float64(b), algos)...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig10l — anytime performance: δ_t at increasing time checkpoints for
// AnsW vs the uninformed AnsHeuB.
func (h *Harness) Fig10l() *Table {
	t := &Table{
		ID:     "Fig 10(l)",
		Title:  "Anytime δ_t on " + datagen.DatasetKnowledge + " (fraction of final answer quality)",
		Header: []string{"checkpoint", "AnsW", "AnsHeuB"},
	}
	spec := InstanceSpec{Dataset: datagen.DatasetKnowledge}
	g := h.GraphFor(datagen.DatasetKnowledge, h.Opts.Scale)
	instances := h.Instances(spec)

	checkpoints := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	deltas := map[string][][]float64{} // algo → per checkpoint list

	for _, aName := range []string{"AnsW", "AnsHeuB"} {
		deltas[aName] = make([][]float64, len(checkpoints))
		for _, inst := range instances {
			type improvement struct {
				at time.Duration
				j  float64
			}
			var trace []improvement
			cfg := h.config(Algo{Name: aName, Beam: 3}, defaultBudget)
			start := time.Now()
			cfg.OnImprove = func(best chase.Answer) {
				trace = append(trace, improvement{at: time.Since(start), j: Jaccard(best.Matches, inst.AnswerStar)})
			}
			w, err := chase.NewWhy(g, inst.Q, inst.E, cfg)
			if err != nil {
				continue
			}
			var total time.Duration
			if aName == "AnsW" {
				w.AnsW()
			} else {
				w.AnsHeuB(3)
			}
			total = time.Since(start)
			base := Jaccard(inst.Answer, inst.AnswerStar)
			for ci, frac := range checkpoints {
				cutoff := time.Duration(float64(total) * frac)
				j := base
				for _, im := range trace {
					if im.at <= cutoff {
						j = im.j
					}
				}
				deltas[aName][ci] = append(deltas[aName][ci], j)
			}
		}
	}
	for ci, frac := range checkpoints {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%% time", frac*100),
			f3(meanF(deltas["AnsW"][ci])),
			f3(meanF(deltas["AnsHeuB"][ci])),
		})
	}
	return t
}

// Fig12a — Why-Many efficiency.
func (h *Harness) Fig12a() *Table {
	algos := []Algo{AlgoFMAnsW, AlgoAnsWb, AlgoAnsW, AlgoApxWhyM}
	t := &Table{
		ID:     "Fig 12(a)",
		Title:  "Why-Many efficiency (mean seconds)",
		Header: append([]string{"dataset"}, algoHeaders(algos)...),
	}
	for _, ds := range []string{datagen.DatasetKnowledge, datagen.DatasetMovies} {
		spec := InstanceSpec{Dataset: ds, RelaxOnly: true}
		row := append([]string{ds}, h.timeRow(spec, defaultBudget, algos)...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig12b — Why-Many effectiveness: how many irrelevant matches remain.
func (h *Harness) Fig12b() *Table {
	algos := []Algo{AlgoAnsW, AlgoApxWhyM}
	t := &Table{
		ID:     "Fig 12(b)",
		Title:  "Why-Many effectiveness (mean |IM| before → after; δ vs ground truth)",
		Header: append([]string{"dataset", "|IM| before"}, algoHeaders(algos)...),
	}
	for _, ds := range []string{datagen.DatasetKnowledge, datagen.DatasetMovies} {
		spec := InstanceSpec{Dataset: ds, RelaxOnly: true}
		g := h.GraphFor(ds, h.Opts.Scale)
		instances := h.Instances(spec)
		var before []float64
		after := make([][]float64, len(algos))
		for _, inst := range instances {
			starSet := make(map[graph.NodeID]bool, len(inst.AnswerStar))
			for _, v := range inst.AnswerStar {
				starSet[v] = true
			}
			imCount := func(matches []graph.NodeID) float64 {
				n := 0
				for _, v := range matches {
					if !starSet[v] {
						n++
					}
				}
				return float64(n)
			}
			before = append(before, imCount(inst.Answer))
			for ai, a := range algos {
				r, err := h.Run(a, g, inst, defaultBudget)
				if err != nil {
					continue
				}
				after[ai] = append(after[ai], imCount(r.Answer.Matches))
			}
		}
		row := []string{ds, f3(meanF(before))}
		for ai := range algos {
			row = append(row, f3(meanF(after[ai])))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig12c — Why-Empty efficiency.
func (h *Harness) Fig12c() *Table {
	algos := []Algo{AlgoAnsWb, AlgoAnsW, AlgoAnsWE}
	t := &Table{
		ID:     "Fig 12(c)",
		Title:  "Why-Empty efficiency (mean seconds)",
		Header: append([]string{"dataset"}, algoHeaders(algos)...),
	}
	for _, ds := range []string{datagen.DatasetKnowledge, datagen.DatasetProducts} {
		spec := InstanceSpec{Dataset: ds, RefineOnly: true, DisturbOps: 4}
		row := append([]string{ds}, h.timeRow(spec, defaultBudget, algos)...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Exp5 — simulated user study: nDCG@3 of AnsW's top-3 rewrites against
// the ground-truth relevance oracle, plus precision of the best
// rewrite's answers.
func (h *Harness) Exp5() *Table {
	t := &Table{
		ID:     "Exp-5",
		Title:  "Simulated user study (relevance oracle = ground-truth answers)",
		Header: []string{"dataset", "nDCG@3", "precision"},
	}
	for _, ds := range []string{datagen.DatasetKnowledge, datagen.DatasetProducts} {
		g := h.GraphFor(ds, h.Opts.Scale)
		instances := h.Instances(InstanceSpec{Dataset: ds})
		var ndcgs, precisions []float64
		for _, inst := range instances {
			w, err := chase.NewWhy(g, inst.Q, inst.E, h.config(AlgoAnsW, defaultBudget))
			if err != nil {
				continue
			}
			top := w.TopK(3)
			gains := make([]float64, len(top))
			for i, a := range top {
				gains[i] = Jaccard(a.Matches, inst.AnswerStar)
			}
			ndcgs = append(ndcgs, ndcg(gains))

			starSet := make(map[graph.NodeID]bool, len(inst.AnswerStar))
			for _, v := range inst.AnswerStar {
				starSet[v] = true
			}
			if len(top[0].Matches) > 0 {
				rel := 0
				for _, v := range top[0].Matches {
					if starSet[v] {
						rel++
					}
				}
				precisions = append(precisions, float64(rel)/float64(len(top[0].Matches)))
			}
		}
		t.Rows = append(t.Rows, []string{ds, f3(meanF(ndcgs)), f3(meanF(precisions))})
	}
	return t
}

// ndcg computes nDCG over a system-ordered gain list: DCG of the given
// order divided by DCG of the ideal (descending) order.
func ndcg(gains []float64) float64 {
	dcg := 0.0
	for i, g := range gains {
		dcg += g / math.Log2(float64(i)+2)
	}
	ideal := append([]float64(nil), gains...)
	sort.Sort(sort.Reverse(sort.Float64Slice(ideal)))
	idcg := 0.0
	for i, g := range ideal {
		idcg += g / math.Log2(float64(i)+2)
	}
	if idcg == 0 {
		return 1
	}
	return dcg / idcg
}

func algoHeaders(algos []Algo) []string {
	out := make([]string, len(algos))
	for i, a := range algos {
		out[i] = a.String()
	}
	return out
}
