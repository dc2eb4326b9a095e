// Topk: the §6.2 scenario — a user wants several alternative regions to
// choose from, not just the single best one. We run the top-k LCMSR query
// on the USANW-style dataset and show that the k regions are disjoint
// alternatives ranked by total relevance.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	db, err := repro.USANWLike(5, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("USANW-style dataset: %d nodes, %d edges, %d objects\n\n",
		db.NumNodes(), db.NumEdges(), db.NumObjects())

	rng := rand.New(rand.NewSource(17))
	queries, err := db.GenQueries(rng, 1, 3, 150e6 /* 150 km² */, 15000 /* 15 km */)
	if err != nil {
		log.Fatal(err)
	}
	q := queries[0]
	fmt.Printf("query: keywords=%v, ∆=%.0f km\n\n", q.Keywords, q.Delta/1000)

	const k = 3
	for _, method := range []repro.Method{repro.MethodTGEN, repro.MethodGreedy} {
		resp := db.Do(context.Background(), repro.Request{Query: q, K: k, Search: repro.SearchOptions{Method: method}})
		if resp.Err != nil {
			log.Fatal(resp.Err)
		}
		fmt.Printf("%v top-%d:\n", method, k)
		used := map[int]bool{}
		for i, r := range resp.Results {
			overlap := false
			for _, n := range r.Nodes {
				if used[n] {
					overlap = true
				}
				used[n] = true
			}
			fmt.Printf("  #%d  weight=%.3f  length=%.2f km  PoIs=%d  overlaps_previous=%v\n",
				i+1, r.Score, r.Length/1000, len(r.Objects), overlap)
		}
		fmt.Println()
	}
}
