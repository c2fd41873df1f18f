// Quickstart: create a database, run a workload, and let one tuning cycle
// recommend indexes, validate them on a shadow clone and adopt what the gate
// accepts; then observe the speedup.
package main

import (
	"fmt"
	"log"
	"strings"

	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/regression"
	"aim/internal/server"
	"aim/internal/shadow"
	"aim/internal/workload"
)

func main() {
	// 1. A database with a table and some data.
	db := engine.New("quickstart")
	db.MustExec(`CREATE TABLE students (id INT, name VARCHAR(24), score INT, class INT, PRIMARY KEY (id))`)
	for i := 0; i < 5000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO students VALUES (%d, 'student%d', %d, %d)",
			i, i, i%1000, i%25))
	}
	db.Analyze()

	// 2. Run the workload while the monitor records execution statistics.
	mon := workload.NewMonitor()
	queries := []string{
		"SELECT id, name FROM students WHERE score > 990",
		"SELECT name FROM students WHERE class = 7 AND score > 500",
		"SELECT class, COUNT(*), AVG(score) FROM students WHERE score > 900 GROUP BY class",
	}
	var beforeCPU float64
	for round := 0; round < 20; round++ {
		for _, q := range queries {
			res, err := db.Exec(q)
			if err != nil {
				log.Fatal(err)
			}
			beforeCPU += res.Stats.CPUSeconds()
			if _, err := mon.Ingest(res.Template, q, res.Stats); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("before tuning: %.4fs cpu for %d statements\n", beforeCPU, 20*len(queries))

	// 3. One tuning cycle: AIM recommends, the shadow gate (the no-regression
	// check) validates on a clone, and only what it accepts is adopted.
	cfg := core.DefaultConfig()
	cfg.Selection.MinExecutions = 1
	tuner := &server.Tuner{DB: db, Adv: core.NewAdvisor(db, cfg), Detector: regression.NewDetector(0.5), Gate: shadow.DefaultGate()}
	out, err := tuner.Run(mon)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAIM recommends %d indexes (%d optimizer calls in %s):\n",
		len(out.Rec.Create), out.Rec.OptimizerCalls, out.Rec.Elapsed.Round(1000000))
	for _, e := range out.Rec.Explanations {
		fmt.Println("  " + e.String())
	}
	if out.Report == nil {
		return
	}
	fmt.Printf("\nshadow gate: %s\n", out.Report.Reason)
	if out.ApplyErr != nil {
		log.Fatal(out.ApplyErr)
	}
	if len(out.Adopted) == 0 {
		return
	}
	fmt.Printf("adopted: %s\n", strings.Join(out.Adopted, ", "))

	// 4. Re-run the workload and compare.
	var afterCPU float64
	for round := 0; round < 20; round++ {
		for _, q := range queries {
			res, err := db.Exec(q)
			if err != nil {
				log.Fatal(err)
			}
			afterCPU += res.Stats.CPUSeconds()
		}
	}
	fmt.Printf("\nafter tuning:  %.4fs cpu (%.1fx faster)\n", afterCPU, beforeCPU/afterCPU)
}
