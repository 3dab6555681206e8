module github.com/szte-dcs/tokenaccount/bench

go 1.24

require github.com/szte-dcs/tokenaccount v0.0.0

replace github.com/szte-dcs/tokenaccount => ../
