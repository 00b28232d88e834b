% Example 6 of the paper: constants in rules and in the query are
% extracted by canonicalization — safe.
r(X, Y) :- p(X, 5), r(5, Y).
r(X, Y) :- a(X, Y).
p(1, 5).
a(1, 2).
?- r(X, 2).
