module github.com/softwarefaults/redundancy/bench

go 1.24

require github.com/softwarefaults/redundancy v0.0.0

replace github.com/softwarefaults/redundancy => ../
