package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"buspower/pkg/buspowersdk"
)

// The remote subcommand: `buspower eval` drives a running server
// through the typed SDK — the same client external tooling uses, so the
// CLI exercises the supported path, not a private one.

// newRemoteClient builds the SDK client for the remote subcommand.
func newRemoteClient(server string, retries int) (*buspowersdk.Client, error) {
	return buspowersdk.New(server, buspowersdk.WithRetries(retries))
}

// parseValuesList parses the -values flag: comma-separated uint64s.
func parseValuesList(s string) ([]uint64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]uint64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -values entry %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// printJSON renders v as indented JSON on stdout.
func printJSON(v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// runEval implements `buspower eval`: one synchronous remote
// evaluation.
func runEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	var (
		server   = fs.String("server", "http://localhost:8080", "buspower server base URL")
		scheme   = fs.String("scheme", "", "coding scheme spec, e.g. window:entries=8 (required)")
		workload = fs.String("workload", "", "registered benchmark name (with -bus)")
		bus      = fs.String("bus", "reg", "workload bus: reg, mem or addr")
		random   = fs.Int("random", 0, "evaluate the shared random trace of this length")
		values   = fs.String("values", "", "inline trace as comma-separated values")
		lambda   = fs.Float64("lambda", 0, "coupling ratio Λ (0 = server default)")
		verify   = fs.String("verify", "", "verification policy: full, sampled[:N] or off")
		quick    = fs.Bool("quick", false, "reduced workload simulation bounds")
		retries  = fs.Int("retries", 3, "transient-failure retries")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scheme == "" {
		return fmt.Errorf("-scheme is required")
	}
	vals, err := parseValuesList(*values)
	if err != nil {
		return err
	}
	req := buspowersdk.EvalRequest{
		Scheme: *scheme,
		Random: *random,
		Values: vals,
		Lambda: *lambda,
		Verify: *verify,
		Quick:  *quick,
	}
	if *workload != "" {
		req.Workload, req.Bus = *workload, *bus
	}
	c, err := newRemoteClient(*server, *retries)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	resp, err := c.Eval(ctx, req)
	if err != nil {
		return err
	}
	return printJSON(resp)
}
