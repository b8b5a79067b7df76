package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"turnstile/internal/instrument"
	"turnstile/internal/interp"
	"turnstile/internal/nodered"
	"turnstile/internal/parser"
	"turnstile/internal/policy"
	"turnstile/internal/printer"
	"turnstile/internal/taint"
)

// cmdFlow deploys a Node-RED flow from privacy-managed node packages and
// injects messages — the §5 case-study workflow as a command:
//
//	turnstile flow -flow flow.json -policy p.json -inject nodeID node1.js node2.js
func cmdFlow(args []string) error {
	fs := flag.NewFlagSet("flow", flag.ExitOnError)
	flowPath := fs.String("flow", "", "flow definition JSON (required)")
	policyPath := fs.String("policy", "", "IFC policy JSON file")
	injectNode := fs.String("inject", "", "node ID to inject messages into (default: first node)")
	messages := fs.Int("messages", 5, "number of messages to inject")
	payload := fs.String("payload", "msg-%d", "payload format (one %d verb)")
	mode := fs.String("mode", "selective", "instrumentation mode: selective or exhaustive")
	enforce := fs.Bool("enforce", true, "block violating flows")
	if err := fs.Parse(args); err != nil {
		return err
	}
	instMode, err := parseMode(*mode)
	if err != nil {
		return err
	}
	if *flowPath == "" {
		return fmt.Errorf("flow: -flow is required")
	}
	flowData, err := os.ReadFile(*flowPath)
	if err != nil {
		return err
	}
	flow, err := nodered.ParseFlowJSON(flowData)
	if err != nil {
		return err
	}
	pkgPaths := fs.Args()
	if len(pkgPaths) == 0 {
		return fmt.Errorf("flow: no node package files given")
	}
	sort.Strings(pkgPaths)

	policyJSON := `{"rules":[]}`
	if *policyPath != "" {
		data, err := os.ReadFile(*policyPath)
		if err != nil {
			return err
		}
		policyJSON = string(data)
	}

	ip := interp.New()
	pol, err := policy.ParseJSON([]byte(policyJSON), ip.CompileLabelFunc)
	if err != nil {
		return err
	}
	tr := ip.InstallTracker(pol)
	tr.Enforce = *enforce
	rt := nodered.New(ip)

	// analyze all packages together, then load the managed versions
	var files []taint.File
	progs := map[string]string{}
	for _, p := range pkgPaths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		prog, err := parser.Parse(p, string(data))
		if err != nil {
			return err
		}
		files = append(files, taint.File{Name: p, Prog: prog})
		progs[p] = string(data)
	}
	analysis := taint.Analyze(files, taint.DefaultOptions())
	fmt.Printf("analysis: %d privacy-sensitive path(s) across %d package(s)\n",
		len(analysis.Paths), len(files))
	for _, f := range files {
		res, err := instrument.Instrument(f.Prog, instrument.Options{
			Mode:       instMode,
			Selection:  instrument.Selection(analysis.SelectionFor(f.Name)),
			Injections: pol.Injections,
			File:       f.Name,
		})
		if err != nil {
			return err
		}
		if err := rt.LoadPackage(f.Name, printer.Print(res.Program)); err != nil {
			return err
		}
		fmt.Printf("loaded %-30s %d label(s), %d invoke(s)\n", f.Name, res.Labels, res.Invokes)
	}

	if err := rt.Deploy(flow); err != nil {
		return err
	}
	target := *injectNode
	if target == "" {
		target = flow.Nodes[0].ID
	}
	fmt.Printf("deployed flow %q (%d nodes); injecting %d message(s) into %q\n",
		flow.Label, len(flow.Nodes), *messages, target)
	for i := 0; i < *messages; i++ {
		msg := interp.NewObject()
		msg.Set("payload", fmt.Sprintf(*payload, i))
		if err := rt.Inject(target, msg); err != nil {
			fmt.Printf("  message %d BLOCKED: %v\n", i, err)
		}
	}
	fmt.Printf("deliveries: %d, sink writes: %d, violations: %d\n",
		len(rt.Deliveries), len(ip.IO.Writes), len(tr.Violations()))
	for _, v := range tr.Violations() {
		fmt.Println("  violation:", v.Error())
	}
	return nil
}
