% Example 15 of the paper with the query argument bound: r(5) — safe
% (though no finite intermediate computation exists without an FD).
.infinite f/2.
r(X) :- f(X, Y), r(Y).
r(X) :- b(X).
?- r(5).
