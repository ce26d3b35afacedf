package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSweep(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-server", "2", "-interval", "5"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Sugon I620-G10", "ondemand", "1.8GHz", "peak power"} {
		if !strings.Contains(s, want) {
			t.Errorf("sweep output missing %q", want)
		}
	}
	if strings.Contains(s, "Fig.21") {
		t.Error("Fig.21 should only print for server 4")
	}
}

func TestRunSweepServer4IncludesFig21(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-server", "4", "-interval", "5"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig.21") {
		t.Error("server 4 sweep should include Fig.21")
	}
}

func TestRunSingle(t *testing.T) {
	var out, errBuf bytes.Buffer
	args := []string{"-server", "2", "-single", "-governor", "ondemand", "-memory", "16", "-interval", "5"}
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"governor ondemand", "16 GB memory", "calibrated throughput", "active idle", "overall EE"} {
		if !strings.Contains(s, want) {
			t.Errorf("single run missing %q:\n%s", want, s)
		}
	}
}

func TestRunSingleFixedFrequency(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-server", "4", "-single", "-governor", "1.8", "-interval", "5"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "busy 1.80 GHz") {
		t.Error("fixed frequency not honored")
	}
}

func TestRunErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-server", "9"}, &out, &errBuf); err == nil {
		t.Error("server 9 accepted")
	}
	if err := run([]string{"-server", "2", "-single", "-governor", "warp"}, &out, &errBuf); err == nil {
		t.Error("unknown governor accepted")
	}
	if err := run([]string{"-server", "2", "-single", "-memory", "7"}, &out, &errBuf); err == nil {
		t.Error("non-multiple memory accepted")
	}
	// A non-positive interval is an error naming the flag, not a
	// silent fall-back to SPEC's 240 s.
	for _, args := range [][]string{
		{"-interval", "0"},
		{"-interval", "-5"},
		{"-server", "2", "-single", "-interval", "-5"},
	} {
		err := run(args, &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), "-interval") {
			t.Errorf("args %v: error %v does not name -interval", args, err)
		}
	}
}

func TestRunRepeat(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-server", "2", "-single", "-repeat", "4", "-interval", "5"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "4 runs") || !strings.Contains(s, "95% CI") {
		t.Errorf("repeat output missing:\n%s", s)
	}
}

func TestRunSingleTransactionFidelity(t *testing.T) {
	var out, errBuf bytes.Buffer
	args := []string{"-server", "2", "-single", "-fidelity", "tx", "-interval", "5"}
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "p99 (ms)") {
		t.Errorf("latency columns missing:\n%s", out.String())
	}
	if err := run([]string{"-server", "2", "-single", "-fidelity", "warp"}, &out, &errBuf); err == nil {
		t.Error("unknown fidelity accepted")
	}
}

func TestRunSingleMultiNode(t *testing.T) {
	var out, errBuf bytes.Buffer
	args := []string{"-server", "2", "-single", "-nodes", "4", "-interval", "5"}
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "4 nodes") {
		t.Errorf("node note missing:\n%s", out.String())
	}
}
