package datagen

import (
	"fmt"
	"math/rand"

	"wqe/internal/graph"
)

// Dataset names used throughout the experiment harness.
const (
	DatasetKnowledge = "dbpedia-like"
	DatasetMovies    = "imdb-like"
	DatasetOffshore  = "offshore-like"
	DatasetProducts  = "watdiv-like"
)

// Generate builds the named dataset at roughly n nodes with a seeded
// generator. Knowledge, Movies, Offshore and Products return the
// dataset unbuilt, for a caller that adds to it first.
func Generate(name string, n int, seed int64) (*graph.Graph, error) {
	switch name {
	case DatasetKnowledge:
		return Knowledge(n, seed).Build()
	case DatasetMovies:
		return Movies(n, seed).Build()
	case DatasetOffshore:
		return Offshore(n, seed).Build()
	case DatasetProducts:
		return Products(n, seed).Build()
	}
	return nil, fmt.Errorf("datagen: unknown dataset %q", name)
}

// AllDatasets lists the four dataset analogs in the paper's order.
func AllDatasets() []string {
	return []string{DatasetKnowledge, DatasetMovies, DatasetOffshore, DatasetProducts}
}

// zipfIdx draws an index in [0, n) with a heavy head (≈ 1/(i+1) mass),
// matching the label/degree skew of real knowledge graphs.
func zipfIdx(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF on the harmonic distribution, approximated by
	// exponentiating a uniform draw.
	u := rng.Float64()
	idx := int(float64(n) * u * u * u)
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// prefAttach draws an edge endpoint with preferential attachment from
// the running endpoint multiset; with probability eps it draws
// uniformly instead (keeps the tail connected).
func prefAttach(rng *rand.Rand, ends []graph.NodeID, numNodes int, eps float64) graph.NodeID {
	if len(ends) == 0 || rng.Float64() < eps {
		return graph.NodeID(rng.Intn(numNodes))
	}
	return ends[rng.Intn(len(ends))]
}

// Knowledge builds the DBpedia analog: a power-law multigraph with many
// labels and ~9 attributes per node drawn from per-label schemas.
func Knowledge(n int, seed int64) *graph.Builder {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	labelCount := n / 400
	if labelCount < 20 {
		labelCount = 20
	}
	if labelCount > 120 {
		labelCount = 120
	}

	// Shared attribute pool; each label uses a contiguous window of it,
	// so labels share some attributes (as DBpedia types do).
	const attrPool = 40
	attrName := func(i int) string { return fmt.Sprintf("attr%02d", i%attrPool) }
	catValues := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}

	for i := 0; i < n; i++ {
		li := zipfIdx(rng, labelCount)
		label := fmt.Sprintf("Type%02d", li)
		nAttrs := 6 + rng.Intn(4) // 6..9
		attrs := make(map[string]graph.Value, nAttrs)
		for a := 0; a < nAttrs; a++ {
			name := attrName(li*3 + a)
			if a%3 == 2 {
				attrs[name] = graph.S(catValues[rng.Intn(len(catValues))])
			} else {
				// Label-specific numeric range so active domains differ.
				base := float64(li * 100)
				attrs[name] = graph.N(base + float64(rng.Intn(1000)))
			}
		}
		b.AddNode(label, attrs)
	}

	relations := []string{"linksTo", "relatedTo", "partOf", "locatedIn", "knows"}
	m := 3 * n
	var ends []graph.NodeID
	for i := 0; i < m; i++ {
		src := graph.NodeID(rng.Intn(n))
		dst := prefAttach(rng, ends, n, 0.2)
		if src == dst {
			continue
		}
		b.AddEdge(src, dst, relations[rng.Intn(len(relations))])
		ends = append(ends, src, dst)
	}
	return b
}

// Movies builds the IMDB analog: movies, people, genres, and studios
// with ~6 attributes and hub actors.
func Movies(n int, seed int64) *graph.Builder {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	nMovies := n * 45 / 100
	nActors := n * 35 / 100
	nDirectors := n * 10 / 100
	nStudios := n * 5 / 100
	nGenres := 18

	genres := make([]graph.NodeID, nGenres)
	for i := range genres {
		genres[i] = b.AddNode("Genre", map[string]graph.Value{
			"Name": graph.S(fmt.Sprintf("genre-%02d", i)),
		})
	}
	studios := make([]graph.NodeID, nStudios)
	for i := range studios {
		studios[i] = b.AddNode("Studio", map[string]graph.Value{
			"Name":    graph.S(fmt.Sprintf("studio-%03d", i)),
			"Founded": graph.N(float64(1900 + rng.Intn(120))),
		})
	}
	movies := make([]graph.NodeID, nMovies)
	for i := range movies {
		movies[i] = b.AddNode("Movie", map[string]graph.Value{
			"Title":   graph.S(fmt.Sprintf("movie-%05d", i)),
			"Year":    graph.N(float64(1950 + rng.Intn(74))),
			"Rating":  graph.N(float64(rng.Intn(100)) / 10),
			"Votes":   graph.N(float64(rng.Intn(1000000))),
			"Runtime": graph.N(float64(60 + rng.Intn(120))),
			"Budget":  graph.N(float64(rng.Intn(200000000))),
		})
		b.AddEdge(movies[i], genres[zipfIdx(rng, nGenres)], "hasGenre")
		if nStudios > 0 {
			b.AddEdge(studios[zipfIdx(rng, nStudios)], movies[i], "produced")
		}
	}
	for i := 0; i < nActors; i++ {
		a := b.AddNode("Actor", map[string]graph.Value{
			"Name":       graph.S(fmt.Sprintf("actor-%05d", i)),
			"BirthYear":  graph.N(float64(1930 + rng.Intn(80))),
			"Popularity": graph.N(float64(rng.Intn(100))),
		})
		roles := 1 + zipfIdx(rng, 8) // hub actors act in many movies
		for r := 0; r <= roles && nMovies > 0; r++ {
			b.AddEdge(a, movies[rng.Intn(nMovies)], "actedIn")
		}
	}
	for i := 0; i < nDirectors; i++ {
		d := b.AddNode("Director", map[string]graph.Value{
			"Name":      graph.S(fmt.Sprintf("director-%04d", i)),
			"BirthYear": graph.N(float64(1930 + rng.Intn(70))),
			"Awards":    graph.N(float64(rng.Intn(20))),
		})
		for r := 0; r <= rng.Intn(4) && nMovies > 0; r++ {
			b.AddEdge(d, movies[rng.Intn(nMovies)], "directed")
		}
	}
	return b
}

// Offshore builds the ICIJ Offshore analog: entities, officers,
// intermediaries, addresses, and jurisdictions with sparse temporal
// attributes.
func Offshore(n int, seed int64) *graph.Builder {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	nEntities := n * 45 / 100
	nOfficers := n * 30 / 100
	nInterm := n * 10 / 100
	nAddresses := n * 14 / 100
	nCountries := 40

	statuses := []string{"Active", "Defaulted", "Dissolved", "Struck"}

	countries := make([]graph.NodeID, nCountries)
	for i := range countries {
		countries[i] = b.AddNode("Country", map[string]graph.Value{
			"Name": graph.S(fmt.Sprintf("country-%02d", i)),
			"Code": graph.N(float64(i)),
		})
	}
	addresses := make([]graph.NodeID, nAddresses)
	for i := range addresses {
		addresses[i] = b.AddNode("Address", map[string]graph.Value{
			"Street": graph.S(fmt.Sprintf("street-%04d", i)),
			"Zip":    graph.N(float64(10000 + rng.Intn(90000))),
		})
		b.AddEdge(addresses[i], countries[zipfIdx(rng, nCountries)], "inCountry")
	}
	entities := make([]graph.NodeID, nEntities)
	for i := range entities {
		inc := 1975 + rng.Intn(40)
		attrs := map[string]graph.Value{
			"Name":        graph.S(fmt.Sprintf("entity-%05d", i)),
			"IncorpYear":  graph.N(float64(inc)),
			"Status":      graph.S(statuses[rng.Intn(len(statuses))]),
			"Shareholder": graph.N(float64(rng.Intn(50))),
		}
		if rng.Intn(3) == 0 {
			attrs["CloseYear"] = graph.N(float64(inc + rng.Intn(30)))
		}
		entities[i] = b.AddNode("Entity", attrs)
		if nAddresses > 0 {
			b.AddEdge(entities[i], addresses[rng.Intn(nAddresses)], "registeredAt")
		}
		b.AddEdge(entities[i], countries[zipfIdx(rng, nCountries)], "jurisdiction")
	}
	for i := 0; i < nOfficers; i++ {
		o := b.AddNode("Officer", map[string]graph.Value{
			"Name":  graph.S(fmt.Sprintf("officer-%05d", i)),
			"Since": graph.N(float64(1980 + rng.Intn(40))),
		})
		for r := 0; r <= zipfIdx(rng, 5) && nEntities > 0; r++ {
			b.AddEdge(o, entities[rng.Intn(nEntities)], "officerOf")
		}
	}
	for i := 0; i < nInterm; i++ {
		m := b.AddNode("Intermediary", map[string]graph.Value{
			"Name":   graph.S(fmt.Sprintf("intermediary-%04d", i)),
			"Volume": graph.N(float64(rng.Intn(10000))),
		})
		for r := 0; r <= 1+zipfIdx(rng, 10) && nEntities > 0; r++ {
			b.AddEdge(m, entities[rng.Intn(nEntities)], "arranged")
		}
	}
	return b
}

// Products builds the WatDiv analog: an e-commerce purchase graph with
// users, products, retailers, reviews, and categories.
func Products(n int, seed int64) *graph.Builder {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	nProducts := n * 35 / 100
	nUsers := n * 25 / 100
	nReviews := n * 25 / 100
	nRetailers := n * 5 / 100
	nCategories := 24
	nBrands := 30

	categories := make([]graph.NodeID, nCategories)
	for i := range categories {
		categories[i] = b.AddNode("Category", map[string]graph.Value{
			"Name": graph.S(fmt.Sprintf("category-%02d", i)),
		})
	}
	brands := make([]graph.NodeID, nBrands)
	for i := range brands {
		brands[i] = b.AddNode("Brand", map[string]graph.Value{
			"Name":    graph.S(fmt.Sprintf("brand-%02d", i)),
			"Founded": graph.N(float64(1950 + rng.Intn(70))),
		})
	}
	products := make([]graph.NodeID, nProducts)
	for i := range products {
		products[i] = b.AddNode("Product", map[string]graph.Value{
			"Name":   graph.S(fmt.Sprintf("product-%05d", i)),
			"Price":  graph.N(float64(5 + rng.Intn(1500))),
			"Rating": graph.N(float64(rng.Intn(50)) / 10),
			"Stock":  graph.N(float64(rng.Intn(500))),
			"Year":   graph.N(float64(2005 + rng.Intn(20))),
		})
		b.AddEdge(products[i], categories[zipfIdx(rng, nCategories)], "inCategory")
		b.AddEdge(products[i], brands[zipfIdx(rng, nBrands)], "brandedBy")
	}
	retailers := make([]graph.NodeID, nRetailers)
	for i := range retailers {
		retailers[i] = b.AddNode("Retailer", map[string]graph.Value{
			"Name":     graph.S(fmt.Sprintf("retailer-%03d", i)),
			"Discount": graph.N(float64(5 * rng.Intn(7))),
			"Ships":    graph.N(float64(1 + rng.Intn(14))),
		})
		listings := 4 + zipfIdx(rng, 40)
		for l := 0; l < listings && nProducts > 0; l++ {
			b.AddEdge(retailers[i], products[rng.Intn(nProducts)], "sells")
		}
	}
	users := make([]graph.NodeID, nUsers)
	for i := range users {
		users[i] = b.AddNode("User", map[string]graph.Value{
			"Name": graph.S(fmt.Sprintf("user-%05d", i)),
			"Age":  graph.N(float64(18 + rng.Intn(60))),
		})
		for p := 0; p <= zipfIdx(rng, 6) && nProducts > 0; p++ {
			b.AddEdge(users[i], products[rng.Intn(nProducts)], "purchased")
		}
	}
	for i := 0; i < nReviews; i++ {
		r := b.AddNode("Review", map[string]graph.Value{
			"Score":   graph.N(float64(1 + rng.Intn(5))),
			"Helpful": graph.N(float64(rng.Intn(200))),
		})
		if nUsers > 0 {
			b.AddEdge(users[rng.Intn(nUsers)], r, "wrote")
		}
		if nProducts > 0 {
			b.AddEdge(r, products[rng.Intn(nProducts)], "reviews")
		}
	}
	return b
}
