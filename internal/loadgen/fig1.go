package loadgen

import "encoding/json"

// The paper's Fig 1 cellphone fixture payload, shared by wqe-serve's
// smoke test and wqe-loadgen's -fig1: the example
// query (cellphones ≥ $840 with ≥ 4GB RAM, sold by a carrier, with a
// sensor within 2 hops) and the exemplar preferring 6.2"/6.3" phones
// under $800.
const (
	Fig1QueryJSON = `{
	 "focus": 0,
	 "nodes": [
	  {"label": "Cellphone", "literals": [
	   {"attr": "Price", "op": ">=", "value": 840},
	   {"attr": "RAM", "op": ">=", "value": 4}]},
	  {"label": "Carrier"},
	  {"label": "Sensor"}
	 ],
	 "edges": [
	  {"from": 1, "to": 0, "bound": 1},
	  {"from": 0, "to": 2, "bound": 2}
	 ]
	}`
	Fig1ExemplarJSON = `{
	 "tuples": [
	  {"Display": {"const": 6.2}, "Price": {"wildcard": true}, "Storage": {"var": "x1"}},
	  {"Display": {"const": 6.3}, "Price": {"var": "x3"}, "Storage": {"var": "x2"}}
	 ],
	 "constraints": [
	  {"left": "x3", "op": "<", "const": 800},
	  {"left": "x1", "op": ">", "right": "x2"}
	 ]
	}`
)

// Fig1Pool returns the built-in single-payload pool over the Fig 1
// fixture — the repeated-question workload the answer cache is built
// for.
func Fig1Pool() []Payload {
	return []Payload{{
		Query:    json.RawMessage(Fig1QueryJSON),
		Exemplar: json.RawMessage(Fig1ExemplarJSON),
	}}
}
