// Resize drives the container control protocols by hand — increase,
// decrease (resource stealing), and the offline transition with
// provenance — and prints each operation's measured cost breakdown, the
// way the paper's §III-D walks through them.
//
//	go run ./examples/resize
package main

import (
	"fmt"
	"log"

	iocontainer "repro"
)

func main() {
	// Management disabled: this example is the manager.
	rt, err := iocontainer.Build(iocontainer.Config{
		SimNodes:     64,
		StagingNodes: 20,
		Sizes:        map[string]int{"helper": 6, "bonds": 2, "csym": 2, "cna": 2},
		Steps:        30,
		CrackStep:    -1,
		Seed:         7,
		Policy:       iocontainer.PolicyConfig{DisableManagement: true},
	})
	if err != nil {
		log.Fatal(err)
	}

	gm := rt.ShardManager(0)
	eng := rt.Engine()
	eng.Go("operator", func(p *iocontainer.Proc) {
		p.Sleep(20 * iocontainer.Second)

		fmt.Println("-- increase: grow bonds onto the spare nodes --")
		spare := rt.TakeSpare(4)
		fmt.Printf("   spare pool had %d nodes; taking %d\n", len(spare)+gm.Spare(), len(spare))
		start := p.Now()
		inc := gm.Increase(p, "bonds", spare)
		fmt.Printf("   total %-9s = aprun launch %s (reported separately)\n", p.Now()-start, inc.Launch)
		fmt.Printf("                      + intra-container metadata exchange %s\n", inc.Intra)
		fmt.Printf("                      + manager messages %s\n", p.Now()-start-inc.Launch-inc.Intra)
		fmt.Printf("   bonds is now %d replicas\n\n", inc.Size)

		p.Sleep(30 * iocontainer.Second)

		fmt.Println("-- steal: decrease the over-provisioned helper, give the nodes to bonds --")
		start = p.Now()
		dec := gm.Decrease(p, "helper", 2)
		fmt.Printf("   decrease total %-9s: writer pause wait %s, victim drain %s\n",
			p.Now()-start, dec.PauseWait, dec.Drain)
		fmt.Printf("   released %d nodes; helper is now %d replicas\n", len(dec.Nodes), dec.Size)
		inc2 := gm.Increase(p, "bonds", dec.Nodes)
		fmt.Printf("   bonds is now %d replicas\n\n", inc2.Size)

		p.Sleep(30 * iocontainer.Second)

		fmt.Println("-- offline: prune csym; upstream bonds switches its ADIOS output to disk --")
		gm.SetOutput(p, "bonds", "csym,cna")
		off := gm.Offline(p, "csym")
		fmt.Printf("   csym offline: released %d nodes, dropped %d queued steps\n",
			len(off.Nodes), off.Dropped)
	})

	res, err := rt.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n-- final state --")
	for _, name := range []string{"helper", "bonds", "csym", "cna"} {
		fmt.Printf("   %-7s %-8s %d nodes\n", name, res.States[name], res.FinalSizes[name])
	}
	// The provenance-stamped disk output bonds produced after csym went
	// offline is a real, re-readable BP stream.
	sink := rt.Container("bonds").DiskSink()
	if sink == nil {
		log.Fatal("bonds never wrote to disk")
	}
	rd, err := sink.Finish()
	if err != nil {
		log.Fatal(err)
	}
	pg, err := rd.ReadStep(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n-- disk output after the offline transition --\n")
	fmt.Printf("   %d steps on disk; step %d carries provenance.pending=%q\n",
		rd.Steps(), pg.Timestep, pg.Attrs["provenance.pending"])
}
