// Restaurants: the paper's motivating scenario (§1, Example 1) — "a user
// wishes to find a region in Manhattan to explore in order to find a
// restaurant for dinner". We build the Manhattan-style synthetic dataset,
// issue a dinner-exploration query over a 100 km² region of interest with
// a 10 km walking budget, and print the region each algorithm proposes,
// with a crude ASCII rendering of the winning region's shape.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	db, err := repro.NYLike(2024, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Manhattan-style dataset: %d junctions, %d street segments, %d PoIs\n\n",
		db.NumNodes(), db.NumEdges(), db.NumObjects())

	// Draw a realistic query: 3 keywords frequent in the chosen district.
	rng := rand.New(rand.NewSource(7))
	queries, err := db.GenQueries(rng, 1, 3, 100e6 /* 100 km² */, 10000 /* 10 km */)
	if err != nil {
		log.Fatal(err)
	}
	q := queries[0]
	fmt.Printf("query: keywords=%v, budget=%.0f km, district=%.0f km²\n\n",
		q.Keywords, q.Delta/1000,
		(q.Region.MaxX-q.Region.MinX)*(q.Region.MaxY-q.Region.MinY)/1e6)

	var best *repro.Result
	for _, method := range []repro.Method{repro.MethodTGEN, repro.MethodAPP, repro.MethodGreedy} {
		resp := db.Do(context.Background(), repro.Request{Query: q, Search: repro.SearchOptions{Method: method}})
		if resp.Err != nil {
			log.Fatal(resp.Err)
		}
		res := resp.Best()
		if res == nil {
			fmt.Printf("%-6s: no matching region\n", method)
			continue
		}
		fmt.Printf("%-6s: weight=%.3f, street length=%.2f km, %d PoIs in region\n",
			method, res.Score, res.Length/1000, len(res.Objects))
		if method == repro.MethodTGEN {
			best = res
		}
	}
	if best == nil {
		return
	}

	// ASCII sketch of the TGEN region: its PoIs over a 24x12 cell canvas
	// covering the region's bounding box — the shapes are irregular,
	// exactly the paper's point versus fixed rectangles.
	minX, minY := best.Objects[0].X, best.Objects[0].Y
	maxX, maxY := minX, minY
	for _, o := range best.Objects {
		if o.X < minX {
			minX = o.X
		}
		if o.X > maxX {
			maxX = o.X
		}
		if o.Y < minY {
			minY = o.Y
		}
		if o.Y > maxY {
			maxY = o.Y
		}
	}
	const w, h = 24, 12
	canvas := [h][w]byte{}
	for y := range canvas {
		for x := range canvas[y] {
			canvas[y][x] = '.'
		}
	}
	span := func(v, lo, hi float64, cells int) int {
		if hi <= lo {
			return 0
		}
		i := int((v - lo) / (hi - lo) * float64(cells-1))
		if i < 0 {
			i = 0
		}
		if i >= cells {
			i = cells - 1
		}
		return i
	}
	for _, o := range best.Objects {
		canvas[h-1-span(o.Y, minY, maxY, h)][span(o.X, minX, maxX, w)] = '#'
	}
	fmt.Println("\nTGEN region PoIs (each # is a matching restaurant/cafe):")
	for _, row := range canvas {
		fmt.Println(string(row[:]))
	}
}
