package main

import (
	"testing"

	"stagedweb/internal/variant"
)

func TestModeAliases(t *testing.T) {
	for alias, want := range modeAliases {
		if _, ok := variant.Lookup(want); !ok {
			t.Errorf("alias %q points at unregistered variant %q", alias, want)
		}
	}
}
