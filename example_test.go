package repro_test

import (
	"context"
	"fmt"
	"log"

	"repro"
)

// Example demonstrates the full pipeline on a hand-built street grid:
// three cafes cluster on two adjacent blocks, and the LCMSR query finds
// the connected street region covering all of them within the budget.
func Example() {
	nodes := []repro.NodeSpec{
		{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0},
		{X: 0, Y: 100}, {X: 100, Y: 100}, {X: 200, Y: 100},
	}
	edges := []repro.EdgeSpec{
		{U: 0, V: 1}, {U: 1, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5},
		{U: 0, V: 3}, {U: 1, V: 4}, {U: 2, V: 5},
	}
	objects := []repro.ObjectSpec{
		{X: 5, Y: 0, Text: "cafe espresso"},
		{X: 100, Y: 5, Text: "cafe"},
		{X: 0, Y: 95, Text: "cafe bakery"},
		{X: 200, Y: 100, Text: "hardware store"},
	}
	db, err := repro.New(nodes, edges, objects)
	if err != nil {
		log.Fatal(err)
	}
	resp := db.Do(context.Background(), repro.Request{Query: repro.Query{
		Keywords: []string{"cafe"},
		Delta:    220,
		Region:   db.Bounds(),
	}})
	if resp.Err != nil {
		log.Fatal(resp.Err)
	}
	res := resp.Best()
	fmt.Printf("cafes in region: %d\n", len(res.Objects))
	fmt.Printf("street length: %.0f m (budget 220 m)\n", res.Length)
	// Output:
	// cafes in region: 3
	// street length: 200 m (budget 220 m)
}
