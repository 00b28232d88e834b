% Example 13 of the paper: recursion that only monotonicity
% constraints can prove safe (decreasing and bounded below).
.infinite f/2.
.infinite g/2.
.fd f: 2 -> 1.
.fd g: 2 -> 1.
.mono f: 2 > 1.
.mono g: 2 > 1.
.mono f: 1 > const(0).
.mono g: 1 > const(0).

r(X, U) :- f(X, Y), g(U, V), r(Y, V).
r(X, U) :- b(X, U).

?- r(X, U).
