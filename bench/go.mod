module circuitql/bench

go 1.22

require circuitql v0.0.0

replace circuitql => ../
