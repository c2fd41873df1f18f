module aim/bench

go 1.22

require aim v0.0.0

replace aim => ../
