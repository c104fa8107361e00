// Package simtime is a golden-file fixture for the simtime analyzer.
package simtime

import (
	"math/rand"
	"time"
)

func bad() {
	_ = time.Now()                     // want "time.Now reads the wall clock"
	time.Sleep(5)                      // want "time.Sleep reads the wall clock"
	_ = time.Since                     // want "time.Since reads the wall clock"
	_ = time.After(5)                  // want "time.After reads the wall clock"
	_ = time.Tick(5)                   // want "time.Tick reads the wall clock"
	_ = time.NewTimer(5)               // want "time.NewTimer reads the wall clock"
	_ = time.NewTicker(5)              // want "time.NewTicker reads the wall clock"
	_ = time.AfterFunc(5, func() {})   // want "time.AfterFunc reads the wall clock"
	_ = rand.Intn(4)                   // want "rand.Intn draws from the process-global stream"
	_ = rand.Float64()                 // want "rand.Float64 draws from the process-global stream"
	rand.Shuffle(2, func(i, j int) {}) // want "rand.Shuffle draws from the process-global stream"
}

func good() {
	// Explicitly seeded private streams are the sanctioned pattern.
	r := rand.New(rand.NewSource(42))
	_ = r.Intn(4)
	// Duration arithmetic and type references never touch the wall clock.
	var d time.Duration = 3 * time.Second
	_ = d
	var src rand.Source
	_ = src
}

func audited() {
	//iocheck:allow simtime fixture demonstrating an audited exception
	_ = time.Now()
}

// deadAllows: an allow covering no finding of its rule is itself a
// finding, but only where that rule ran — maprange does not run on this
// fixture, so its allow is not judged here.
func deadAllows() {
	//iocheck:allow simtime nothing here reads the clock // want "//iocheck:allow simtime suppresses no simtime finding"
	_ = 1
	//iocheck:allow maprange judged only on runs where maprange checks this package
	_ = 2
}
