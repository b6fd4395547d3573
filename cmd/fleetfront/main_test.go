package main

import (
	"reflect"
	"testing"

	"repro/internal/serve/front"
)

func TestParseWorkers(t *testing.T) {
	got, err := parseWorkers(" w0=localhost:8081/, w1=http://10.0.0.2:8080 ,,w2=https://edge.example/pool//")
	if err != nil {
		t.Fatal(err)
	}
	want := []front.Worker{
		{Name: "w0", URL: "http://localhost:8081"},
		{Name: "w1", URL: "http://10.0.0.2:8080"},
		{Name: "w2", URL: "https://edge.example/pool"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseWorkers:\n got %+v\nwant %+v", got, want)
	}
	for _, bad := range []string{"  ", "localhost:8081", "=localhost:8081"} {
		if _, err := parseWorkers(bad); err == nil {
			t.Errorf("parseWorkers(%q) accepted", bad)
		}
	}
}
