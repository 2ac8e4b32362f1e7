package wqe

import (
	"math/rand"

	"wqe/internal/datagen"
)

// Dataset names accepted by GenerateDataset, mirroring the paper's four
// evaluation datasets (synthetic analogs; see DESIGN.md §4).
const (
	DatasetKnowledge = datagen.DatasetKnowledge // DBpedia analog
	DatasetMovies    = datagen.DatasetMovies    // IMDB analog
	DatasetOffshore  = datagen.DatasetOffshore  // ICIJ Offshore analog
	DatasetProducts  = datagen.DatasetProducts  // WatDiv analog
)

// GenerateDataset builds one of the named synthetic datasets at roughly
// n nodes with a seeded deterministic generator.
func GenerateDataset(name string, n int, seed int64) (*Graph, error) {
	return datagen.Generate(name, n, seed)
}

// Fig1Example bundles the paper's running example: the Fig 2 product
// graph, the Fig 1 query, and the Example 2.3 exemplar, plus named
// node handles.
type Fig1Example = datagen.Fig1

// NewFig1Example constructs the running example.
func NewFig1Example() *Fig1Example { return datagen.NewFig1() }

// WorkloadSpec parameterizes Why-question generation for experiments
// and demos (see datagen.WhySpec).
type WorkloadSpec = datagen.WhySpec

// QueryWorkload parameterizes ground-truth query sampling (shape, edge
// count, predicates).
type QueryWorkload = datagen.QuerySpec

// WhyInstance is one generated Why-question with its ground truth.
type WhyInstance = datagen.WhyInstance

// GenerateWhyQuestion samples one Why-question over g: a ground-truth
// query with answers, a disturbed query, and an exemplar listing
// desired entities.
func GenerateWhyQuestion(g *Graph, spec WorkloadSpec, seed int64) (*WhyInstance, bool) {
	m := NewMatcher(g, nil, nil)
	rng := rand.New(rand.NewSource(seed))
	return datagen.GenWhy(g, m, spec, rng)
}
