% Example 13 of the paper without its monotonicity constraints: the
% finiteness dependencies alone cannot bound the recursion — unsafe.
.infinite f/2.
.infinite g/2.
.fd f: 2 -> 1.
.fd g: 2 -> 1.
r(X, U) :- f(X, Y), g(U, V), r(Y, V).
r(X, U) :- b(X, U).
?- r(X, U).
