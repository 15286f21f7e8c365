// Command caisp-score computes the context-aware threat score of every
// supported SDO in a STIX 2.0 bundle read from a file or stdin, optionally
// against an infrastructure inventory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/stix"
)

func main() {
	var (
		inventoryPath = flag.String("inventory", "", "inventory JSON (empty = paper's Table III inventory)")
		weightsPath   = flag.String("weights", "", "criteria-points override JSON (empty = paper's expert weights)")
		atRaw         = flag.String("at", "", "evaluation instant, RFC 3339 (empty = now)")
		verbose       = flag.Bool("v", false, "print the per-feature breakdown")
	)
	flag.Parse()
	if err := run(flag.Arg(0), *inventoryPath, *weightsPath, *atRaw, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "caisp-score:", err)
		os.Exit(1)
	}
}

func run(bundlePath, inventoryPath, weightsPath, atRaw string, verbose bool) error {
	var data []byte
	var err error
	if bundlePath == "" || bundlePath == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(bundlePath)
	}
	if err != nil {
		return err
	}
	bundle, err := stix.ParseBundle(data)
	if err != nil {
		return err
	}

	inventory, err := infra.LoadInventory(inventoryPath)
	if err != nil {
		return err
	}
	collector, err := infra.NewCollector(inventory)
	if err != nil {
		return err
	}

	opts := []heuristic.Option{heuristic.WithInfrastructure(collector)}
	if weightsPath != "" {
		raw, err := os.ReadFile(weightsPath)
		if err != nil {
			return err
		}
		cfg, err := heuristic.ParseWeights(raw)
		if err != nil {
			return err
		}
		opt, err := heuristic.WithWeights(cfg)
		if err != nil {
			return err
		}
		opts = append(opts, opt)
	}
	if atRaw != "" {
		at, err := time.Parse(time.RFC3339, atRaw)
		if err != nil {
			return fmt.Errorf("bad -at: %w", err)
		}
		opts = append(opts, heuristic.WithClock(clock.NewFake(at)))
	}
	engine := heuristic.NewEngine(opts...)

	scored := 0
	for _, obj := range bundle.Objects {
		res, err := engine.Evaluate(obj)
		if err != nil {
			continue // SDO type without a heuristic
		}
		scored++
		c := obj.GetCommon()
		fmt.Printf("%s  TS=%.4f  Cp=%.4f  priority=%s  (%s)\n",
			c.ID, res.Score, res.Completeness, res.Priority(), res.SDOType)
		if verbose {
			breakdown, err := json.MarshalIndent(res.Features, "  ", "  ")
			if err != nil {
				return err
			}
			fmt.Printf("  %s\n", breakdown)
		}
	}
	if scored == 0 {
		return fmt.Errorf("bundle contains no scorable SDOs (supported: %v)", engine.SupportedTypes())
	}
	return nil
}
