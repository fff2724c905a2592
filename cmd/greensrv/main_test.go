package main

import (
	"strings"
	"testing"
)

func TestCheckRemoteFlags(t *testing.T) {
	cases := []struct {
		set     []string
		refused string // flag named in the error; "" = accepted
	}{
		{nil, ""},
		{[]string{"remote-nodes", "retry-seed", "queue", "store", "no-trace"}, ""},
		{[]string{"remote-nodes", "workers"}, "-workers"},
		{[]string{"remote-nodes", "job-timeout"}, "-job-timeout"},
		{[]string{"remote-nodes", "max-attempts"}, "-max-attempts"},
		{[]string{"remote-nodes", "retry-base"}, "-retry-base"},
		{[]string{"remote-nodes", "retry-max"}, "-retry-max"},
	}
	for _, c := range cases {
		explicit := map[string]bool{}
		for _, name := range c.set {
			explicit[name] = true
		}
		err := checkRemoteFlags(explicit)
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("%v: unexpected error %v", c.set, err)
		case c.refused != "" && err == nil:
			t.Errorf("%v: accepted, want %s refused", c.set, c.refused)
		case c.refused != "" && !strings.HasPrefix(err.Error(), c.refused+" "):
			t.Errorf("%v: error %q does not name %s", c.set, err, c.refused)
		}
	}
}
