package main

import (
	"bytes"
	"strings"
	"testing"
)

// Bad flags are errors naming the flag, returned before the server
// builds a corpus or listens. Every case here fails during flag
// checking, so none of them reaches http.ListenAndServe.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-sweep-seconds", "0"}, "-sweep-seconds"},
		{[]string{"-sweep-seconds", "-5"}, "-sweep-seconds"},
		{[]string{"-no-sweeps", "-sweep-seconds", "-5"}, "-sweep-seconds"},
		{[]string{"-workspace", "-1"}, "-workspace"},
	} {
		var out, errBuf bytes.Buffer
		err := run(c.args, &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("args %v: error %v does not name %s", c.args, err, c.flag)
		}
	}
}
