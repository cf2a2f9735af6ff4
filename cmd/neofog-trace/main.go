// Command neofog-trace generates and inspects synthetic power-income
// traces: the solar-day model with the forest (independent) and bridge
// (dependent) per-node synthesis recipes of §5.2.
//
// Usage:
//
//	neofog-trace -weather rainy -nodes 4 -out traces/   # write CSVs
//	neofog-trace -weather sunny -stats                  # summary only
//	neofog-trace -in trace.csv -stats                   # inspect a CSV
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"neofog/internal/energytrace"
	"neofog/internal/units"
	"neofog/internal/version"
)

func main() {
	var (
		weather = flag.String("weather", "sunny", "regime: sunny, overcast, rainy")
		nodes   = flag.Int("nodes", 1, "number of per-node traces to synthesise")
		corr    = flag.Bool("correlated", false, "dependent (bridge) instead of independent (forest) traces")
		peak    = flag.Float64("peak", 0, "panel peak in mW (0 = regime default)")
		seed    = flag.Int64("seed", 1, "random seed")
		outDir  = flag.String("out", "", "directory for trace CSVs (empty = none)")
		inFile  = flag.String("in", "", "inspect an existing trace CSV instead of generating")
		stats   = flag.Bool("stats", true, "print per-trace statistics")
		showVer = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()

	if *showVer {
		fmt.Println("neofog-trace", version.String())
		return
	}
	if *inFile != "" {
		f, err := os.Open(*inFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tr, err := energytrace.ReadCSV(f)
		if err != nil {
			fatal(err)
		}
		printStats(*inFile, tr)
		return
	}

	var cfg energytrace.SolarConfig
	switch *weather {
	case "sunny":
		cfg = energytrace.SunnyDay()
	case "overcast":
		cfg = energytrace.OvercastDay()
	case "rainy":
		cfg = energytrace.RainyDay()
	default:
		fatal(fmt.Errorf("unknown weather %q", *weather))
	}
	if *peak > 0 {
		cfg.Peak = units.Power(*peak)
	}

	rng := rand.New(rand.NewSource(*seed))
	var traces []*energytrace.Sampled
	if *nodes == 1 {
		traces = []*energytrace.Sampled{cfg.Generate(rng)}
	} else if *corr {
		traces = energytrace.DependentSet(cfg, *nodes, 0.3, rng)
	} else {
		traces = energytrace.IndependentSet(cfg, *nodes, 5*units.Minute, rng)
	}

	for i, tr := range traces {
		name := fmt.Sprintf("node%02d", i)
		if *stats {
			printStats(name, tr)
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*outDir, name+".csv")
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := energytrace.WriteCSV(f, tr); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
}

func printStats(name string, tr *energytrace.Sampled) {
	total := energytrace.Integrate(tr, 0, tr.Duration())
	fmt.Printf("%s: %d samples @ %v, duration %v\n", name, len(tr.Samples), tr.Step, tr.Duration())
	fmt.Printf("  mean %v, stddev %v, total harvestable %v\n", tr.Mean(), tr.StdDev(), total)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "neofog-trace:", err)
	os.Exit(1)
}
