// Quickstart: build a tiny road network by hand, add a few points of
// interest, and run one LCMSR query with each algorithm.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// A 4x4 street grid, 100 m blocks.
	var nodes []repro.NodeSpec
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			nodes = append(nodes, repro.NodeSpec{X: float64(x) * 100, Y: float64(y) * 100})
		}
	}
	id := func(x, y int) int { return y*4 + x }
	var edges []repro.EdgeSpec
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if x+1 < 4 {
				edges = append(edges, repro.EdgeSpec{U: id(x, y), V: id(x+1, y)})
			}
			if y+1 < 4 {
				edges = append(edges, repro.EdgeSpec{U: id(x, y), V: id(x, y+1)})
			}
		}
	}
	// Cafes cluster in the south-west corner; a lone bookstore north-east.
	objects := []repro.ObjectSpec{
		{X: 10, Y: 5, Text: "Blue Bottle cafe espresso"},
		{X: 105, Y: 10, Text: "Corner cafe bakery"},
		{X: 8, Y: 110, Text: "Third Rail cafe"},
		{X: 210, Y: 95, Text: "Midtown diner breakfast"},
		{X: 305, Y: 310, Text: "Strand bookstore books"},
	}
	db, err := repro.New(nodes, edges, objects)
	if err != nil {
		log.Fatal(err)
	}

	query := repro.Query{
		Keywords: []string{"cafe"},
		Delta:    250, // explore at most 250 m of streets
		Region:   db.Bounds(),
	}
	for _, method := range []repro.Method{repro.MethodTGEN, repro.MethodAPP, repro.MethodGreedy} {
		resp := db.Do(context.Background(), repro.Request{Query: query, Search: repro.SearchOptions{Method: method}})
		if resp.Err != nil {
			log.Fatal(resp.Err)
		}
		res := resp.Best()
		fmt.Printf("%-6s weight=%.4f length=%.0fm objects=%d\n",
			method, res.Score, res.Length, len(res.Objects))
		for _, o := range res.Objects {
			fmt.Printf("       poi %d at (%.0f,%.0f) relevance %.4f\n", o.ID, o.X, o.Y, o.Score)
		}
	}
}
