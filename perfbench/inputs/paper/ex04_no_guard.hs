% Example 4 of the paper without the guard a(Y) (also Example 15's
% free query with f2 -> f1): unsafe.
.infinite t/2.
.fd t: 2 -> 1.
r(X) :- t(X, Y), r(Y).
r(X) :- b(X).
?- r(X).
