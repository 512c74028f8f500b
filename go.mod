module waitornot

go 1.24
