module ghostwriter

go 1.23
