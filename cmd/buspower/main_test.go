package main

import (
	"strings"
	"testing"
)

func TestCheckNoArgs(t *testing.T) {
	if err := checkNoArgs(nil); err != nil {
		t.Fatalf("no arguments: %v", err)
	}
	// A stray word after the flags, or a subcommand that does not exist
	// (including the retired bench and job), must fail naming the
	// argument and the real subcommands.
	for _, args := range [][]string{{"stray"}, {"bench", "-quick"}, {"job", "-list"}} {
		err := checkNoArgs(args)
		if err == nil {
			t.Fatalf("%q: accepted", args)
		}
		msg := err.Error()
		if !strings.Contains(msg, `"`+args[0]+`"`) || !strings.HasSuffix(msg, "(subcommands: eval, serve)") {
			t.Errorf("%q: error %q does not name the argument and the subcommands eval, serve", args, msg)
		}
	}
	if _, ok := subcommands["job"]; ok {
		t.Error(`"job" is still a subcommand`)
	}
}
