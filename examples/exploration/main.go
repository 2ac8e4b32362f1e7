// Exploratory search (Fig 3): the query → response → exemplar →
// rewrite loop, run for several sessions over the IMDB-like graph. The
// "user" keeps pointing at more desired entities; each session rewrites
// the previous session's query, and the differential table explains
// what changed and why.
package main

import (
	"fmt"
	"log"

	"wqe"
)

func main() {
	g, err := wqe.GenerateDataset(wqe.DatasetMovies, 6000, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("movie graph:", g)

	// A hidden intent and its public, imperfect first attempt.
	inst, ok := wqe.GenerateWhyQuestion(g, wqe.WorkloadSpec{
		Query:      wqe.QueryWorkload{Edges: 2, MaxPredicates: 2, FocusLabel: "Movie"},
		DisturbOps: 4,
		MaxTuples:  12,
	}, 17)
	if !ok {
		log.Fatal("could not sample an exploration scenario")
	}
	desired := inst.AnswerStar
	fmt.Printf("\nhidden intent: %s (%d desired movies)\n", inst.Qstar, len(desired))

	// A Session keeps the star-view cache warm across the whole
	// exploration (§5.2).
	session := wqe.NewSession(g, wqe.DefaultConfig())

	q := inst.Q
	// The user reveals a few more desired movies each session.
	reveal := []int{3, 6, 12}
	for i, n := range reveal {
		if n > len(desired) {
			n = len(desired)
		}
		e := wqe.ExemplarFromEntities(g, desired[:n], []string{"Year", "Rating"})

		fmt.Printf("\n══ session %d ══\n", i+1)
		fmt.Println("query:   ", q)
		fmt.Printf("exemplar: %d example movies\n", n)

		a, err := session.AskFast(q, e, 3) // fast per-session response (§4)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("rewrite:  %s\n", a.Query)
		fmt.Printf("answers:  %d (recall of intent: %.1f%%)\n",
			len(a.Matches), 100*recall(a.Matches, desired))
		for _, d := range a.Diff {
			fmt.Println("  lineage:", d.Op)
		}
		q = a.Query // next session explores from the rewrite
	}
	hits, misses := session.CacheStats()
	fmt.Printf("\nstar-view cache across sessions: %d hits / %d lookups\n", hits, hits+misses)
}

func recall(got, want []wqe.NodeID) float64 {
	if len(want) == 0 {
		return 0
	}
	set := map[wqe.NodeID]bool{}
	for _, v := range got {
		set[v] = true
	}
	n := 0
	for _, v := range want {
		if set[v] {
			n++
		}
	}
	return float64(n) / float64(len(want))
}
