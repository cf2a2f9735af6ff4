// Command neofog-node is the single-node energy profiler: it evaluates the
// naive and buffered strategies of Table 2 for one application (or all of
// them) and prints the energy breakdown.
//
// Usage:
//
//	neofog-node                    # full Table 2
//	neofog-node -app "UV Meter"    # one application, with detail
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"neofog/internal/apps"
	"neofog/internal/cpu"
	"neofog/internal/experiments"
	"neofog/internal/rf"
	"neofog/internal/version"
)

func main() {
	var (
		appName = flag.String("app", "", "application name from Table 2 (empty = all)")
		seed    = flag.Int64("seed", 1, "random seed for the synthetic sensor stream")
		bytes   = flag.Int("buffer", apps.BufferSize, "buffered-strategy block size in bytes")
		showVer = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()

	if *showVer {
		fmt.Println("neofog-node", version.String())
		return
	}
	if *appName == "" {
		fmt.Println(experiments.Table2(experiments.Options{Seed: *seed}).Format())
		return
	}

	a, err := apps.ByName(*appName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "neofog-node:", err)
		fmt.Fprintln(os.Stderr, "known applications:")
		for _, known := range apps.All() {
			fmt.Fprintf(os.Stderr, "  %q\n", known.Name)
		}
		os.Exit(1)
	}

	core := cpu.Default8051()
	radio := rf.ML7266()
	rng := rand.New(rand.NewSource(*seed))
	saved, naive, buf := a.EnergySaved(core, radio, *bytes, rng)

	fmt.Printf("application: %s (%s)\n", a.Name, a.Device.Name)
	fmt.Printf("sample size: %d bytes, %d instructions of naive processing\n\n",
		a.Device.BytesPerSample, a.NaiveInsts)

	fmt.Println("naive sensing-computing-transmission (per sample):")
	fmt.Printf("  compute: %v in %v\n", naive.ComputeEnergy, naive.ComputeTime)
	fmt.Printf("  TX:      %v on air (%d bytes)\n", naive.TxEnergy, naive.TxBytes)
	fmt.Printf("  compute ratio: %.1f%%\n\n", naive.ComputeRatio()*100)

	fmt.Printf("buffered strategy (%d-byte block):\n", buf.RawBytes)
	fmt.Printf("  fog pipeline:  %d instructions\n", buf.FogInsts)
	fmt.Printf("  compression:   %d instructions (ratio %.2f%%)\n",
		buf.CompressInsts, buf.CompressionRatio*100)
	fmt.Printf("  compute:       %v in %v\n", buf.ComputeEnergy, buf.ComputeTime)
	fmt.Printf("  TX:            %v (%d bytes)\n", buf.TxEnergy, buf.TxBytes)
	fmt.Printf("  compute ratio: %.1f%%\n\n", buf.ComputeRatio()*100)

	fmt.Printf("total energy vs naive for the same data: %+.1f%%\n", saved*100)
}
