package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
)

// TestFlagSurface pins dvpnode's flags by name and default. Adding a
// flag means editing this table — ROADMAP's "no new flag without
// removing one", executable — and the ten the benchmark harness passes
// (-site -listen -ctl -peers -wal -create -group-commit -timeout
// -retransmit -sync) must keep their defaults.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"site":               "0",
		"listen":             "",
		"ctl":                "",
		"peers":              "",
		"wal":                "",
		"create":             "",
		"cc":                 "conc1",
		"timeout":            "250ms",
		"sync":               "false",
		"group-commit":       "false",
		"checkpoint-records": "0",
		"metrics":            "",
		"rebalance":          "false",
		"retransmit":         "25ms",
	}
	fs := flag.NewFlagSet("dvpnode", flag.ContinueOnError)
	defineFlags(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
}

func TestParsePeers(t *testing.T) {
	for _, tc := range []struct {
		arg     string
		peers   []ident.SiteID
		addrs   map[ident.SiteID]string
		wantErr string
	}{
		{arg: "2=b:2, 1=a:1", peers: []ident.SiteID{1, 2}, addrs: map[ident.SiteID]string{1: "a:1", 2: "b:2"}},
		{arg: "1=:7101", peers: []ident.SiteID{1}, addrs: map[ident.SiteID]string{1: ":7101"}},
		{arg: "1=a,1=b", wantErr: "site 1 listed twice"},
		{arg: "1", wantErr: "not id=addr"},
		{arg: "x=a", wantErr: `bad site id "x"`},
		{arg: "0=a", wantErr: `bad site id "0"`},
	} {
		peers, addrs, err := parsePeers(tc.arg)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parsePeers(%q) error = %v, want one containing %q", tc.arg, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(peers, tc.peers) || !reflect.DeepEqual(addrs, tc.addrs) {
			t.Errorf("parsePeers(%q) = %v, %v, %v; want %v, %v", tc.arg, peers, addrs, err, tc.peers, tc.addrs)
		}
	}
}

func TestParseCreate(t *testing.T) {
	for _, tc := range []struct {
		kv      string
		item    ident.ItemID
		share   core.Value
		wantErr string
	}{
		{kv: "flight/A=40", item: "flight/A", share: 40},
		{kv: " it/0=0", item: "it/0", share: 0},
		{kv: "flight/A", wantErr: "not item=share"},
		{kv: "flight/A=-1", wantErr: `bad share "-1"`},
		{kv: "flight/A=lots", wantErr: `bad share "lots"`},
	} {
		item, share, err := parseCreate(tc.kv)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseCreate(%q) error = %v, want one containing %q", tc.kv, err, tc.wantErr)
			}
			continue
		}
		if err != nil || item != tc.item || share != tc.share {
			t.Errorf("parseCreate(%q) = %q, %d, %v; want %q, %d", tc.kv, item, share, err, tc.item, tc.share)
		}
	}
}

func TestParseScheme(t *testing.T) {
	for name, want := range map[string]cc.Scheme{"conc1": cc.Conc1, "conc2": cc.Conc2, "Conc2": cc.Conc2} {
		if got, err := parseScheme(name); err != nil || got != want {
			t.Errorf("parseScheme(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"conc3", "", "2pl"} {
		if _, err := parseScheme(name); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("parseScheme(%q) error = %v, want one naming the value", name, err)
		}
	}
}
