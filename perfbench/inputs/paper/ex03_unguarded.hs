% Example 3 of the paper: recursion through the infinite relation t
% with nothing bounding it — unsafe.
.infinite t/2.
r(X) :- t(X, Y), r(Y).
r(X) :- b(X).
?- r(X).
