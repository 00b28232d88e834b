% Example 4 of the paper: the finite guard a(Y) plus the dependency
% t: 2 -> 1 bound every X — safe.
.infinite t/2.
.fd t: 2 -> 1.
r(X) :- t(X, Y), r(Y), a(Y).
r(X) :- b(X).
?- r(X).
