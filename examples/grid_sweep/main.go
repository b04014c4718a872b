// Scenario-grid sweep: declare a cross-product of workloads and
// fabrics in one literal and run it on the concurrent memoizing engine.
// The grid below asks a 4D-parallelism question the paper poses in §3 —
// what do photonic rails cost as context parallelism joins FSDP and PP
// on the rails? — across reactive and provisioned reconfiguration, with
// the static-partition baseline included so its C2 infeasibility is
// reported rather than hand-waved.
//
//	go run ./examples/grid_sweep
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"photonrail"
)

func main() {
	log.SetFlags(0)
	grid := photonrail.Grid{
		Name: "cp-question",
		Fabrics: []photonrail.GridFabricKind{
			photonrail.GridElectrical,
			photonrail.GridPhotonic,
			photonrail.GridPhotonicProvisioned,
			photonrail.GridPhotonicStatic,
		},
		LatenciesMS: []float64{1, 10, 100},
		Parallelisms: []photonrail.GridParallelism{
			{TP: 4, DP: 2, PP: 2},        // the paper's 3D workload
			{TP: 4, DP: 1, CP: 2, PP: 2}, // context parallelism on the rails
		},
		Iterations: 2,
	}

	en := photonrail.NewEngine(0)
	res, err := en.RunGrid(context.Background(), grid, nil)
	if err != nil {
		log.Fatal(err)
	}
	// The text rendering is the grid table plus an ok/skip count.
	if err := res.RenderText(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	for _, row := range res.Rows.(photonrail.GridRows).Cells {
		if row.Status == "skip" {
			fmt.Printf("skipped %s: %s\n", row.Cell, row.SkipReason)
		}
	}
	st := en.CacheStats()
	fmt.Printf("\ncache %d hits / %d misses — each workload's electrical\n", st.Hits, st.Misses)
	fmt.Println("baseline simulated once and shared by every cell that normalizes to it.")
	fmt.Println("For long grid batches over many distinct workloads, call en.ResetCache()")
	fmt.Println("between batches (the cache retains every distinct result).")
}
