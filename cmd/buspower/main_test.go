package main

import (
	"strings"
	"testing"
)

func TestCheckNoArgs(t *testing.T) {
	if err := checkNoArgs(nil); err != nil {
		t.Fatalf("no arguments: %v", err)
	}
	// A stray word after the flags, or a subcommand that does not exist,
	// must fail naming the argument and the real subcommands.
	for _, args := range [][]string{{"stray"}, {"bench", "-quick"}} {
		err := checkNoArgs(args)
		if err == nil {
			t.Fatalf("%q: accepted", args)
		}
		msg := err.Error()
		for _, want := range []string{`"` + args[0] + `"`, "eval", "job", "loadtest", "serve"} {
			if !strings.Contains(msg, want) {
				t.Errorf("%q: error %q does not mention %s", args, msg, want)
			}
		}
	}
}
