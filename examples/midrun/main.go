// Midrun demonstrates the paper's interactive scenario: "a user can also
// launch a visualization code when needed" and "add this filter now while
// I'm looking at the output". Halfway through a managed run, the user
// launches a ParaView-style visualization container that taps a duplicate
// of the Bonds output — the existing pipeline loses nothing.
//
//	go run ./examples/midrun
package main

import (
	"fmt"
	"log"

	iocontainer "repro"
)

func main() {
	cfg := iocontainer.Config{
		SimNodes:     256,
		StagingNodes: 18, // 5 spare nodes beyond the Fig. 7 layout
		Sizes:        iocontainer.DefaultSizes(13),
		Steps:        30,
		CrackStep:    -1,
		Seed:         42,
	}
	rt, err := iocontainer.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The "user at the terminal", modeled as a simulated process.
	rt.Engine().Go("scientist", func(p *iocontainer.Proc) {
		p.Sleep(150 * iocontainer.Second)
		fmt.Println("t=150s: scientist: \"show me the bonds output while it runs\"")
		viz := iocontainer.ComponentSpec{
			Name:  "paraview",
			Kind:  iocontainer.KindCustom,
			Model: iocontainer.ModelRR,
			Cost: iocontainer.CostModel{
				Kind:             iocontainer.KindCustom,
				Base:             6 * iocontainer.Second,
				RefAtoms:         iocontainer.ScaleForNodes(256).AtomCount,
				ExponentOverride: 1,
			},
		}
		c, err := rt.ShardManager(0).LaunchContainer(p, viz, 2, "bonds")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=%s: paraview container up on %d nodes, tapping bonds\n",
			p.Now(), c.Size())
	})

	res, err := rt.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nmanagement record:")
	for _, a := range res.Actions {
		fmt.Printf("  t=%-9s %-9s %-9s %s\n", a.T, a.Kind, a.Target, a.Detail)
	}
	fmt.Printf("\npipeline analyzed %d/%d steps end-to-end (nothing stolen by the viz tap)\n",
		res.Exits, res.Emitted)
	fmt.Printf("paraview rendered %d frames (only steps after its launch)\n",
		rt.Container("paraview").StepsProcessed())
}
